"""Cross-cutting property-based tests (hypothesis).

These encode the framework's algebraic invariants on *arbitrary* legal
traces — the strongest form of the reproduction's internal consistency:

* fold composition: analysing a fold of a fold equals analysing the fold
  directly (the paper folds specification -> evaluation -> smaller
  evaluation machines and relies on this implicitly);
* Eq. 1/Eq. 2 consistency: D on a flat machine equals H;
* Lemma 3.1 universally;
* ascend-descend conserves message endpoints and label legality;
* degree monotonicity under sigma and machine coarsening.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ascend_descend import ascend_descend_trace
from repro.core.lemmas import check_lemma_3_1
from repro.core.metrics import TraceMetrics
from repro.machine.folding import F_vector, S_vector, fold_trace
from repro.models import flat_bsp

from conftest import random_trace

traces = st.builds(
    lambda seed, logv, steps: random_trace(
        1 << logv, steps, np.random.default_rng(seed)
    ),
    seed=st.integers(0, 2**31),
    logv=st.integers(2, 6),
    steps=st.integers(1, 8),
)


class TestFoldComposition:
    @given(traces, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_fold_of_fold_preserves_metrics(self, t, drop):
        """F/S of fold(t, p) analysed at q == F/S of t analysed at q."""
        v = t.v
        p = max(2, v >> 1)
        q = max(2, p >> drop)
        folded = fold_trace(t, p)
        assert np.array_equal(F_vector(folded, q), F_vector(t, q))
        assert np.array_equal(S_vector(folded, q), S_vector(t, q))

    @given(traces)
    @settings(max_examples=30, deadline=None)
    def test_full_fold_is_identity_on_metrics(self, t):
        folded = fold_trace(t, t.v)
        tm_a, tm_b = TraceMetrics(t), TraceMetrics(folded)
        for p in (2, t.v):
            assert tm_a.H(p, 1.0) == tm_b.H(p, 1.0)


class TestModelConsistency:
    @given(traces, st.floats(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_flat_dbsp_equals_evaluation_model(self, t, sigma):
        p = t.v
        tm = TraceMetrics(t)
        assert tm.D_machine(flat_bsp(p, 1.0, sigma)) == pytest.approx(
            tm.H(p, sigma)
        )

    @given(traces, st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_H_affine_in_sigma(self, t, s1, s2):
        tm = TraceMetrics(t)
        p = t.v
        h1, h2 = tm.H(p, s1), tm.H(p, s2)
        S = tm.S(p).sum()
        assert h2 - h1 == pytest.approx((s2 - s1) * S)

    @given(traces)
    @settings(max_examples=40, deadline=None)
    def test_lemma_3_1_universal(self, t):
        assert check_lemma_3_1(TraceMetrics(t), t.v)


class TestAscendDescendProperties:
    @given(traces)
    @settings(max_examples=25, deadline=None)
    def test_valid_and_flow_conserving(self, t):
        p = t.v
        out = ascend_descend_trace(t, p, include_prefix=False)
        out.validate()
        folded = fold_trace(t, p)
        net_orig = np.zeros(p, dtype=np.int64)
        keep = folded.src != folded.dst
        np.add.at(net_orig, folded.src[keep], 1)
        np.add.at(net_orig, folded.dst[keep], -1)
        net_new = np.zeros(p, dtype=np.int64)
        np.add.at(net_new, out.src, 1)
        np.add.at(net_new, out.dst, -1)
        assert np.array_equal(net_orig, net_new)

    @given(traces)
    @settings(max_examples=25, deadline=None)
    def test_labels_never_finer_than_original(self, t):
        p = t.v
        out = ascend_descend_trace(t, p, include_prefix=False)
        # Each source superstep expands into labels >= its own; since we
        # process supersteps in order, check the global multiset property:
        # the minimum label of the expansion >= minimum original label.
        orig_min = t.labels.min(initial=0) if t.num_supersteps else 0
        if out.num_supersteps:
            assert out.labels.min() >= orig_min


class TestAlgorithmsAsProperties:
    @given(st.integers(0, 2**31), st.sampled_from([4, 8, 16]))
    @settings(max_examples=20, deadline=None)
    def test_matmul_random(self, seed, side):
        from repro.algorithms import matmul

        rng = np.random.default_rng(seed)
        A = rng.integers(-3, 4, (side, side)).astype(float)
        B = rng.integers(-3, 4, (side, side)).astype(float)
        assert np.allclose(matmul.run(A, B).product, A @ B)

    @given(st.integers(0, 2**31), st.sampled_from([8, 32, 128]))
    @settings(max_examples=20, deadline=None)
    def test_fft_random(self, seed, n):
        from repro.algorithms import fft

        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(fft.run(x).output, np.fft.fft(x))

    @given(st.integers(0, 2**31), st.sampled_from([32, 64, 128]))
    @settings(max_examples=15, deadline=None)
    def test_sort_random(self, seed, n):
        from repro.algorithms import sorting

        keys = np.random.default_rng(seed).permutation(n).astype(float)
        assert np.array_equal(sorting.run(keys).output, np.sort(keys))

    @given(st.integers(0, 2**31), st.sampled_from([2, 4, 8]))
    @settings(max_examples=15, deadline=None)
    def test_prefix_random(self, seed, logn):
        from repro.algorithms import prefix

        x = np.random.default_rng(seed).integers(0, 100, 1 << logn)
        res = prefix.run(x, inclusive=True)
        assert np.array_equal(res.output, np.cumsum(x))
