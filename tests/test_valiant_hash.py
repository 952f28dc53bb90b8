"""Statistical and structural checks of ``ValiantPolicy``'s counter-based
draw: uniform intermediates, independent consecutive draws, cluster bits
kept at every label, and seeds and ordinals past 64 and 32 bits."""

import numpy as np
import pytest

from repro.networks import by_name
from repro.networks.policy import ValiantPolicy

#: Two-sided chi-square bounds at tail probability 1e-6 per side, by
#: degrees of freedom: a fit outside them fails a fixed, seeded draw.
CHI2_BOUNDS = {63: (23.16, 131.37), 255: (161.65, 377.08)}


def chi_square(observed: np.ndarray) -> float:
    expected = observed.sum() / observed.size
    return float(((observed - expected) ** 2 / expected).sum())


def mids(policy, p, counts, label=0, seed=11):
    """Phase-1 destinations of a trace of ``counts`` supersteps at one
    label, with sources drawn from ``seed``."""
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    src = np.random.default_rng(seed).integers(0, p, int(offsets[-1]))
    labels = np.full(len(counts), label, dtype=np.int64)
    legs = policy.phase_legs(by_name("ring", p), labels, offsets, src, src)
    return src, offsets, legs[0][1]


@pytest.mark.parametrize("seed", [0, 5, 2**64 + 3])
def test_label_zero_intermediates_are_uniform(seed):
    _, _, mid = mids(ValiantPolicy(seed), 64, [4] * 4096)
    lo, hi = CHI2_BOUNDS[63]
    assert lo < chi_square(np.bincount(mid, minlength=64)) < hi


@pytest.mark.parametrize("seed", [0, 5])
def test_consecutive_supersteps_draw_independently(seed):
    """The first message of supersteps 2k and 2k + 1 as a pair over a
    16 x 16 grid."""
    _, offsets, mid = mids(ValiantPolicy(seed), 16, [2] * 2**15)
    first = mid[offsets[:-1]]
    pairs = first[0::2] * 16 + first[1::2]
    lo, hi = CHI2_BOUNDS[255]
    assert lo < chi_square(np.bincount(pairs, minlength=256)) < hi


@pytest.mark.parametrize("seed", [0, 5])
def test_consecutive_messages_draw_independently(seed):
    _, _, mid = mids(ValiantPolicy(seed), 16, [8] * 4096)
    pairs = mid[0::2] * 16 + mid[1::2]
    lo, hi = CHI2_BOUNDS[255]
    assert lo < chi_square(np.bincount(pairs, minlength=256)) < hi


@pytest.mark.parametrize("label", range(8))
def test_intermediates_keep_the_source_cluster(label):
    """The leading ``label`` bits of every source survive; the free low
    bits take every value; a label of log2 p or more moves nothing."""
    src, _, mid = mids(ValiantPolicy(1), 64, [64] * 64, label=label)
    shift = max(0, 6 - label)
    assert np.array_equal(mid >> shift, src >> shift)
    if shift:
        assert np.unique(mid & ((1 << shift) - 1)).size == 1 << shift
    else:
        assert np.array_equal(mid, src)


@pytest.mark.parametrize("seed", [0, 3, 2**64 + 3])
def test_ordinals_from_two_to_the_32_draw_apart(seed):
    """Ordinals of 2**32 and above match the oracle and do not repeat
    the draw of the ordinal 2**32 or 2**64 below them."""
    policy = ValiantPolicy(seed)
    topo = by_name("ring", 64)
    src = np.arange(64)
    for step in (5, 2**32, 2**32 + 5, 2**33 + 5, 2**63 - 1):
        got = policy.intermediates(topo, step, 0, src)
        assert np.array_equal(got, policy.intermediates_reference(topo, step, 0, src))
    low = policy.intermediates(topo, 5, 0, src)
    for step in (2**32 + 5, 2**33 + 5):
        assert not np.array_equal(policy.intermediates(topo, step, 0, src), low)


def test_seeds_equal_modulo_two_to_the_64_draw_apart():
    topo = by_name("ring", 64)
    src = np.arange(64)
    a = ValiantPolicy(3).intermediates(topo, 0, 0, src)
    b = ValiantPolicy(2**64 + 3).intermediates(topo, 0, 0, src)
    assert not np.array_equal(a, b)
