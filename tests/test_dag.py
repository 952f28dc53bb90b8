"""Tests for the DAG substrate (graphs, builders, generic evaluation)."""

import numpy as np
import pytest

from repro.dag import (
    StaticDAG,
    block_assignment,
    build_diamond_dag,
    build_fft_dag,
    build_stencil_dag_1d,
    build_stencil_dag_2d,
    diamond_nodes,
    evaluate_on_machine,
    evaluate_stencil_1d,
    evaluate_stencil_2d,
    fft_via_dag,
    phase_counts,
    stripe_decomposition,
)


class TestStaticDAG:
    def test_from_pred_lists(self):
        dag = StaticDAG.from_pred_lists([[], [], [0, 1]])
        assert dag.num_nodes == 3
        assert dag.num_arcs == 2
        assert list(dag.preds(2)) == [0, 1]
        assert list(dag.sources) == [0, 1]

    def test_levels(self):
        dag = StaticDAG.from_pred_lists([[], [0], [1], [0, 2]])
        assert list(dag.levels()) == [0, 1, 2, 3]

    def test_cycle_detection(self):
        dag = StaticDAG.from_pred_lists([[1], [0]])
        with pytest.raises(ValueError):
            dag.levels()

    def test_validate_bad_index(self):
        dag = StaticDAG.from_pred_lists([[], [5]])
        with pytest.raises(ValueError):
            dag.validate()


class TestFFTDag:
    def test_shape(self):
        dag = build_fft_dag(16)
        assert dag.num_nodes == 16 * 5
        assert dag.num_arcs == 2 * 16 * 4
        assert dag.levels().max() == 4

    def test_arcs_flip_one_bit(self):
        n = 8
        dag = build_fft_dag(n)
        for l in range(3):
            for w in range(n):
                ps = dag.preds((l + 1) * n + w)
                ws = sorted(int(q) % n for q in ps)
                assert ws == sorted({w & ~(1 << l), w | (1 << l)})

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_dag_evaluation_matches_numpy(self, rng, n):
        x = rng.random(n) + 1j * rng.random(n)
        assert np.allclose(fft_via_dag(x), np.fft.fft(x))


class TestDiamond:
    def test_node_count(self):
        # Side-n diamond has 2n^2 - 2n + 1 nodes.
        for n in (2, 4, 8):
            assert diamond_nodes(n).shape[0] == 2 * n * n - 2 * n + 1

    def test_dag_structure(self):
        dag = build_diamond_dag(4)
        dag.validate()
        assert dag.levels().max() == 2 * 4 - 2
        assert dag.sources.shape[0] == 1  # single bottom node

    def test_stripe_decomposition_figure_1(self):
        """Figure 1: 2k-1 stripes, <= k diamonds each, k^2 total."""
        for n, k in ((16, 4), (64, 8), (256, 4)):
            sd = stripe_decomposition(n, k)
            assert sd.num_stripes == 2 * k - 1
            assert sd.max_diamonds_per_stripe == k
            assert sd.total_subdiamonds == k * k

    def test_stripe_dependencies_flow_forward(self):
        """A sub-diamond's predecessors lie in strictly earlier stripes."""
        k = 4
        sd = stripe_decomposition(16, k)
        stripe_of = {}
        for r, ds in enumerate(sd.stripes):
            for ab in ds:
                stripe_of[ab] = r
        for (a, b), r in stripe_of.items():
            # dependencies come from (a-1, b) and (a, b+1)
            for pa, pb in ((a - 1, b), (a, b + 1)):
                if (pa, pb) in stripe_of:
                    assert stripe_of[(pa, pb)] < r

    def test_phase_counts(self):
        rows = phase_counts(64, 4)
        assert rows[0]["phases"] == 7
        assert rows[1]["phases"] == 49
        assert [r["label"] for r in rows[:2]] == [0, 2]


class TestStencilDags:
    def test_1d_structure(self):
        dag = build_stencil_dag_1d(4)
        dag.validate()
        assert dag.num_nodes == 16
        assert list(dag.preds(1 * 4 + 0)) == [0, 1]  # edge node: 2 preds

    def test_2d_structure(self):
        dag = build_stencil_dag_2d(3)
        dag.validate()
        assert dag.num_nodes == 27
        centre = (1 * 3 + 1) * 3 + 1
        assert dag.preds(centre).shape[0] == 9

    def test_2d_oracle_conserves_mean(self, rng):
        """The 3x3-mean rule with periodic-free fill decays energy."""
        x0 = rng.random((8, 8))
        cube = evaluate_stencil_2d(x0, 8)
        assert cube.shape == (8, 8, 8)
        assert cube[1:].max() <= x0.max() + 1e-12

    def test_1d_oracle_basic(self):
        grid = evaluate_stencil_1d(np.array([0.0, 3.0, 0.0, 0.0]), 2)
        assert np.allclose(grid[1], [1.0, 1.0, 1.0, 0.0])


class TestGenericEvaluation:
    def test_sum_tree(self):
        preds = [[] for _ in range(4)] + [[0, 1], [2, 3], []]
        preds[6] = [4, 5]
        dag = StaticDAG.from_pred_lists(preds)
        res = evaluate_on_machine(
            dag, 4, np.array([1, 2, 3, 4], dtype=complex),
            lambda us, ops: ops[0] + ops[1],
        )
        assert res.trace.is_validated  # one whole-array pass at the end
        assert res.trace.num_supersteps == res.supersteps == 2
        assert res.values[6].real == 10.0

    @pytest.mark.parametrize("v", [1, 2, 4, 8])
    def test_one_message_per_cross_vp_arc(self, v):
        """Each superstep carries exactly its level's arcs between two VPs."""
        dag = build_fft_dag(16)
        res = evaluate_on_machine(
            dag, v, np.zeros(16, dtype=complex), lambda us, ops: ops[0] + ops[1]
        )
        assign, levels = res.assignment, dag.levels()
        assert res.trace.is_validated
        for l in range(1, res.trace.num_supersteps + 1):
            _, src, dst = res.trace.superstep(l - 1)
            pairs = sorted(
                (int(assign[q]), int(assign[u]))
                for u in np.flatnonzero(levels == l)
                for q in dag.preds(u)
                if assign[q] != assign[u]
            )
            assert sorted(zip(src.tolist(), dst.tolist())) == pairs
        if v == 1:
            assert res.messages == 0

    @pytest.mark.parametrize(
        "v, n_inputs, assignment",
        [
            (6, 4, None),  # v not a power of two
            (4, 3, None),  # one input value short
            (4, 4, np.zeros(3, np.int64)),  # assignment misses nodes
        ],
        ids=["v-not-power-of-two", "inputs-short", "assignment-short"],
    )
    def test_bad_arguments_rejected(self, v, n_inputs, assignment):
        dag = StaticDAG.from_pred_lists([[], [], [], [], [0, 1], [2, 3]])
        with pytest.raises(ValueError):
            evaluate_on_machine(
                dag, v, np.ones(n_inputs, dtype=complex),
                lambda us, ops: ops[0] + ops[1], assignment=assignment,
            )

    def test_block_assignment_spread(self):
        dag = build_fft_dag(8)
        assign = block_assignment(dag, 8)
        # every level uses all 8 VPs (8 nodes per level)
        levels = dag.levels()
        for l in range(4):
            assert len(set(assign[levels == l])) == 8

    def test_supersteps_one_per_level(self):
        dag = build_fft_dag(8)
        res = evaluate_on_machine(
            dag, 8, np.zeros(8, dtype=complex), lambda us, ops: ops[0] + ops[1]
        )
        assert res.supersteps == 3  # levels 1..log n

    def test_minimal_labels_used(self):
        """With one VP per node index, FFT level l+1 only crosses within
        blocks of 2^{l+1} — labels should get coarser, not stay 0."""
        dag = build_fft_dag(8)
        res = evaluate_on_machine(
            dag, 8, np.zeros(8, dtype=complex), lambda us, ops: ops[0] + ops[1],
            assignment=np.tile(np.arange(8), 4),
        )
        assert res.trace.labels.tolist() == [2, 1, 0]
