"""The ``pattern`` column and the kernels that read it.

``Trace.pattern`` maps every superstep to an earlier or equal
representative with the same ``src``/``dst``.  The builder's pattern
must be the one :func:`content_pattern` finds in the built columns, for
hand-made recordings and for every registered algorithm.  The fold
table, the level rows, the folded trace and dimension-order routing
work on the representatives only and gather through it; every result
must equal the flat superstep-by-superstep oracle whichever valid
pattern the trace carries: the builder's, the one computed from
content, or the identity.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import specs
from repro.machine.folding import (
    F_vector,
    S_vector,
    fold_degrees,
    fold_message_counts,
    fold_trace,
)
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import ClusterViolation, Trace, content_pattern
from repro.networks import by_name
from repro.networks.policy import DimensionOrderPolicy
from repro.networks.routing import compute_route
from repro.util.intmath import ilog2

from conftest import all_folds, make_trace, oracle_legs
from fold_oracles import (
    F_vector_reference,
    S_vector_reference,
    fold_degrees_reference,
    fold_message_counts_reference,
    fold_trace_reference,
)

COLUMNS = ("labels", "offsets", "src", "dst")


def _legal(v: int, label: int, m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """``m`` random messages that stay inside their ``label``-clusters."""
    logv = ilog2(v)
    src = rng.integers(0, v, size=m)
    shift = logv - label
    return src, (src >> shift << shift) | rng.integers(0, 1 << shift, size=m)


def planted_trace(v: int, steps: int, seed: int) -> Trace:
    """A random cluster-legal trace with planted repeats.

    Each superstep is fresh, or repeats an earlier one through the same
    arrays, through equal content in new arrays, or under a smaller
    label; a sub-schedule is appended twice with ``extend``, and two
    recorded supersteps are recorded again as one ``supersteps`` batch.  With
    ``log v >= 2`` one superstep of label ``log v - 1`` is repeated under
    label 0, so its class's first member folds away at small ``p``
    while the copy survives.
    """
    rng = np.random.default_rng(seed)
    logv = ilog2(v)
    top = max(1, logv)
    b = ScheduleBuilder(v)
    recorded: list[tuple[int, np.ndarray, np.ndarray]] = []
    if logv >= 2:
        src, dst = _legal(v, logv - 1, int(rng.integers(1, 9)), rng)
        recorded.append((logv - 1, src, dst))
        b.superstep(logv - 1, src, dst)
    for _ in range(steps):
        kind = int(rng.integers(0, 6)) if recorded else 0
        if kind == 0:  # fresh
            label = int(rng.integers(0, top))
            src, dst = _legal(v, label, int(rng.integers(0, 12)), rng)
        else:
            label, src, dst = recorded[int(rng.integers(0, len(recorded)))]
            if kind == 2:  # equal content, different arrays
                src, dst = src.copy(), dst.copy()
            elif kind == 3:  # the same content under a smaller label
                label = int(rng.integers(0, label + 1))
            elif kind == 4:  # a sub-schedule appended twice
                sub = ScheduleBuilder(v)
                sub.superstep(label, src, dst)
                fresh = int(rng.integers(0, top))
                sub.superstep(fresh, *_legal(v, fresh, 3, rng))
                b.extend(sub)
                b.extend(sub)
                continue
            elif kind == 5:  # two recorded supersteps as one CSR batch
                picks = [recorded[int(i)] for i in rng.integers(0, len(recorded), 2)]
                sizes = [picked[1].size for picked in picks]
                b.supersteps(
                    [picked[0] for picked in picks],
                    [0, sizes[0], sizes[0] + sizes[1]],
                    np.concatenate([picked[1] for picked in picks]),
                    np.concatenate([picked[2] for picked in picks]),
                )
                continue
        recorded.append((label, src, dst))
        b.superstep(label, src, dst)
    if logv >= 2:
        label, src, dst = recorded[0]
        b.superstep(0, src.copy(), dst.copy())
    return b.build()


def variants(t: Trace) -> dict[str, Trace]:
    """``t`` with its builder pattern, from content, and the identity."""
    cols = tuple(getattr(t, c) for c in COLUMNS)
    return {
        "builder": t,
        "content": Trace(t.v, *cols),
        "identity": Trace(t.v, *cols, np.arange(t.num_supersteps)),
    }


def assert_valid_pattern(t: Trace) -> None:
    pattern = t.pattern
    steps = np.arange(t.num_supersteps)
    assert not pattern.flags.writeable
    assert (pattern <= steps).all()
    assert np.array_equal(pattern[pattern], pattern)
    for s in steps:
        _, src, dst = t.superstep(s)
        _, rsrc, rdst = t.superstep(int(pattern[s]))
        assert np.array_equal(src, rsrc) and np.array_equal(dst, rdst)


def flat_route(trace: Trace, topo) -> tuple[np.ndarray, np.ndarray]:
    """Dimension-order (congestion, dilation) of every superstep of the
    reference fold, routed one superstep at a time."""
    folded = fold_trace_reference(trace, topo.p)
    caps = topo.edge_capacities()
    S = folded.num_supersteps
    congestion, dilation = np.zeros(S), np.zeros(S, dtype=np.int64)
    for s in range(S):
        label, src, dst = folded.superstep(s)
        if src.size:
            for a, b in oracle_legs(DimensionOrderPolicy(), topo, s, label, src, dst):
                loads, dil = topo.route_loads_reference(a, b)
                congestion[s] += float((loads / caps).max())
                dilation[s] += dil
    return congestion, dilation


planted = st.builds(
    planted_trace,
    v=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    steps=st.integers(0, 14),
    seed=st.integers(0, 2**31),
)


class TestPattern:
    @given(planted)
    @settings(max_examples=60, deadline=None)
    def test_builder_and_content_patterns(self, t):
        t.validate()
        assert_valid_pattern(t)
        content = variants(t)["content"]
        assert_valid_pattern(content)
        assert np.array_equal(t.pattern, content.pattern)

    @given(planted)
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_the_flat_oracle(self, t):
        for name, u in variants(t).items():
            for p in [1] + all_folds(t.v):
                assert np.array_equal(fold_degrees(u, p), fold_degrees_reference(u, p)), name
                assert np.array_equal(
                    fold_message_counts(u, p), fold_message_counts_reference(u, p)
                ), name
                assert np.array_equal(F_vector(u, p), F_vector_reference(u, p)), name
                assert np.array_equal(S_vector(u, p), S_vector_reference(u, p)), name
                folded, ref = fold_trace(u, p), fold_trace_reference(u, p)
                for c in COLUMNS:
                    assert np.array_equal(getattr(folded, c), getattr(ref, c)), (name, c)
                assert_valid_pattern(folded)

    @given(planted)
    @settings(max_examples=30, deadline=None)
    def test_dimension_order_profile_matches_the_flat_oracle(self, t):
        for name, u in variants(t).items():
            for p in all_folds(t.v):
                for topo in (by_name("ring", p), by_name("hypercube", p)):
                    profile = compute_route(u, topo, DimensionOrderPolicy())
                    congestion, dilation = flat_route(u, topo)
                    assert np.array_equal(profile.congestion, congestion), name
                    assert np.array_equal(profile.dilation, dilation), name
                    assert np.array_equal(profile.time, congestion + dilation + 1.0)

    def test_folded_away_first_member(self):
        """A class whose first member folds away is represented by its
        first kept member in the folded trace."""
        src, dst = np.array([0, 5]), np.array([1, 4])  # legal at label 2 on M(8)
        t = make_trace(8, (2, src, dst), (0, [0], [4]), (0, src, dst), (1, src, dst))
        assert np.array_equal(t.pattern, [0, 1, 0, 0])
        folded = fold_trace(t, 8)
        assert np.array_equal(folded.pattern, [0, 1, 0, 0])
        folded = fold_trace(t, 4)  # label 2 folds away
        assert np.array_equal(folded.labels, [0, 0, 1])
        assert np.array_equal(folded.pattern, [0, 1, 1])
        folded = fold_trace(t, 2)  # label 1 too
        assert np.array_equal(folded.pattern, [0, 1])


class TestPatternSources:
    def test_batch_supersteps_join_their_class(self):
        b = ScheduleBuilder(4)
        b.superstep(0, [0], [1])
        b.supersteps([0, 0], [0, 1, 2], [0, 0], [1, 1])
        b.superstep(0, np.array([0]), np.array([1]))
        t = b.build()
        assert np.array_equal(t.pattern, [0, 0, 0, 0])
        assert np.array_equal(content_pattern(t.offsets, t.src, t.dst), [0, 0, 0, 0])

    def test_shared_blocks_map_to_their_first_copy(self):
        """Blocks appended twice are hashed once; their supersteps map to
        the first trace position of their class, across blocks."""
        sub = ScheduleBuilder(4)
        sub.supersteps([0, 1], [0, 1, 2], [2, 0], [3, 1])
        b = ScheduleBuilder(4)
        b.superstep(1, [0], [1])
        b.extend(sub)
        b.superstep(0, [1], [0])
        b.extend(sub)
        t = b.build()
        assert np.array_equal(t.pattern, [0, 1, 0, 3, 1, 0])
        t.validate()

    def test_empty_supersteps_share_a_class(self):
        t = Trace(4, [0, 1, 0], [0, 0, 1, 1], [2], [3])
        assert np.array_equal(t.pattern, [0, 1, 0])

    def test_hash_collision_keeps_its_own_representative(self, monkeypatch):
        """Matches are confirmed message by message: with a hash that
        maps everything together (zero multipliers: the splitmix64
        finaliser maps 0 to 0), unequal supersteps stay apart."""
        import repro.machine.trace as trace_mod

        for k in ("_K_SRC", "_K_DST", "_K_POS"):
            monkeypatch.setattr(trace_mod, k, np.uint64(0))
        offsets = np.array([0, 2, 4, 6])
        src = np.array([0, 1, 1, 0, 0, 1])
        dst = np.array([1, 0, 0, 1, 1, 0])
        assert np.array_equal(content_pattern(offsets, src, dst), [0, 1, 0])

    def test_reordered_messages_are_not_a_repeat(self):
        t = Trace(4, [0, 0, 0], [0, 2, 4, 6], [0, 1, 1, 0, 0, 1], [1, 2, 2, 1, 1, 2])
        assert np.array_equal(t.pattern, [0, 1, 0])

    def test_bad_pattern_rejected(self):
        cols = ([0, 0], [0, 1, 3], [0, 0, 1], [1, 1, 0])
        for bad in ([1, 1], [0, 0], [0, 2], [-1, 1]):
            with pytest.raises(ValueError, match="pattern"):
                Trace(4, *cols, np.array(bad)).validate()
        Trace(4, *cols, np.array([0, 1])).validate()


class TestValidatePerRepresentative:
    def test_violation_in_a_late_copy_is_named(self):
        """A copy of a legal 0-superstep under label 1 crosses its
        cluster; the first violation is that copy's own superstep."""
        src, dst = np.array([0, 1, 2]), np.array([1, 0, 7])
        t = make_trace(8, (0, src, dst), (0, [3], [2]), (1, src, dst))
        assert np.array_equal(t.pattern, [0, 1, 0])
        with pytest.raises(
            ClusterViolation,
            match=r"superstep 2 \(label 1\): message 2->7 crosses its 1-cluster",
        ):
            t.validate()
        assert not t.is_validated

    def test_endpoint_out_of_range_in_a_copy(self):
        t = make_trace(8, (0, [0, 9], [1, 1]), (0, [0, 9], [1, 1]))
        with pytest.raises(ValueError, match=r"message endpoint outside \[0, 8\)"):
            t.validate()


#: The sources of the perfbench workloads, beside each algorithm's
#: default sizes.
PERFBENCH_SIZES = {
    "stencil1d": (8, 16, 32), "stencil2d": (4, 8), "sort": (64, 128, 256),
    "matmul": (16, 64), "fft": (64, 256, 1024), "prefix": (64, 128, 256),
    "broadcast": (256,),
}


def _emitted():
    for name, spec in sorted(specs().items()):
        wise = [None]
        if "wise" in inspect.signature(spec.emit).parameters:
            wise = [True, False]
        for n in sorted(set(spec.default_sizes) | set(PERFBENCH_SIZES.get(name, ()))):
            for w in wise:
                suffix = "" if w is None else f"-wise={w}"
                yield pytest.param(name, n, w, id=f"{name}-{n}{suffix}")


def _emit(name: str, n: int, wise: bool | None) -> Trace:
    spec = specs()[name]
    params: dict = {} if wise is None else {"wise": wise}
    if spec.needs_p:
        params["p"] = 8 if name == "bsp-matmul-3d" else 4
    return spec.run(n, seed=1, **params).trace


def _representatives(pattern: np.ndarray) -> int:
    return int(np.count_nonzero(pattern == np.arange(pattern.size)))


class TestEmittedPatterns:
    @pytest.mark.parametrize("name, n, wise", list(_emitted()))
    def test_builder_finds_every_repeat(self, name, n, wise):
        t = _emit(name, n, wise)
        content = content_pattern(t.offsets, t.src, t.dst)
        assert _representatives(t.pattern) == _representatives(content)
        assert np.array_equal(t.pattern, content)

    @pytest.mark.parametrize("name, n, reps", [
        ("stencil1d", 16, 69), ("stencil1d", 32, 151),
        ("stencil2d", 4, 1), ("stencil2d", 8, 2),
    ])
    def test_stencil_representatives(self, name, n, reps):
        t = _emit(name, n, True)
        assert _representatives(t.pattern) == reps
        assert_valid_pattern(t)
