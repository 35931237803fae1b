"""The split search scores only the cuts at class boundaries, from integer
sums, and takes float gains only near each node's best score; on any node
it must pick the split that scoring every cut picks, count the rows that
go left, and write the node's rows back with those rows first."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_best_splits
from test_forest import reference_tree
from trifault import forest


@st.composite
def node_batches(draw, max_rows=30, classes=st.integers(2, 8)):
    """One to three nodes scored in one call: (X, codes) blocks of a few
    rows on a coarse grid, so values repeat, with classes that mostly
    follow the first feature, so that one-class stretches and mixed value
    groups both occur. Also the class count, m_try and the leaf limit."""
    n_features = draw(st.integers(1, 3))
    n_classes = draw(classes)
    m_try = draw(st.integers(1, n_features))
    min_leaf = draw(st.integers(1, 3))
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        n_rows = draw(st.integers(2, max_rows))
        grid = draw(st.integers(1, 6))
        cells = st.integers(0, grid)
        X = np.array(draw(st.lists(cells, min_size=n_rows * n_features, max_size=n_rows * n_features)))
        X = X.reshape(n_rows, n_features) / grid
        noise = st.integers(-1, n_classes - 1)  # -1: the class the first feature gives
        drawn = np.array(draw(st.lists(noise, min_size=n_rows, max_size=n_rows)))
        codes = np.where(drawn < 0, (X[:, 0] * grid).astype(np.intp) % n_classes, drawn)
        nodes.append((X, codes, draw(st.integers(0, 2**32 - 1))))
    return nodes, n_classes, m_try, min_leaf


def batch_arguments(batch):
    """X, codes and the arguments of _best_splits for one drawn batch,
    and each node's bootstrap of its own rows."""
    nodes, n_classes, m_try, min_leaf = batch
    n_features = nodes[0][0].shape[1]
    X = np.concatenate([X for X, _, _ in nodes])
    codes = np.concatenate([codes for _, codes, _ in nodes])
    n_node = np.array([len(c) for _, c, _ in nodes])
    lo = np.cumsum(n_node) - n_node
    # node k owns the bag range lo[k] .. lo[k] + n_node[k] - 1: a draw with
    # replacement from its own rows, in no particular order
    samples = [
        np.random.default_rng([seed, 1]).integers(0, len(c), len(c)) for _, c, seed in nodes
    ]
    bag = np.concatenate([start + sample for start, sample in zip(lo, samples)])
    counts = np.array([
        np.bincount(codes[start + sample], minlength=n_classes) for start, sample in zip(lo, samples)
    ])
    feats = np.array([
        np.sort(np.random.default_rng(seed).choice(n_features, m_try, replace=False))
        if m_try < n_features else np.arange(n_features)
        for _, _, seed in nodes
    ])
    return X, codes, (forest._presort(X, codes), bag, lo, n_node, counts, feats, min_leaf), samples


@settings(max_examples=400, deadline=None)
@given(node_batches())
def test_best_splits_match_scoring_every_cut(batch):
    nodes, n_classes, m_try, min_leaf = batch
    X, codes, (presort, bag, lo, n_node, counts, feats, _), samples = batch_arguments(batch)
    written = bag.copy()
    feature, threshold, n_left, left = forest._best_splits(
        presort, written, lo, n_node, counts, feats, min_leaf
    )
    for k, (X_k, codes_k, seed) in enumerate(nodes):
        # the reference scores the root over every cut; max_depth 1 stops there
        root = reference_tree(
            X_k, codes_k, samples[k], n_classes, m_try, 1, min_leaf, np.random.default_rng(seed),
        )[0]
        assert (feature[k], threshold[k]) == root[:2]
        rows = written[lo[k] : lo[k] + n_node[k]]
        assert np.array_equal(np.sort(rows), np.sort(bag[lo[k] : lo[k] + n_node[k]]))
        if feature[k] < 0:
            assert n_left[k] == 0 and not left[k].any()
            continue
        # the node's rows that go left, their class counts, and the bag
        # range written back with them first
        goes_left = X[rows, feature[k]] <= threshold[k]
        assert n_left[k] == np.count_nonzero(goes_left)
        assert np.array_equal(left[k], np.bincount(codes[rows[goes_left]], minlength=n_classes))
        assert goes_left[: n_left[k]].all() and not goes_left[n_left[k] :].any()


# most desk-like class counts, and now and then up to every 6-bit mask
MANY_CLASSES = st.one_of(st.integers(2, 22), st.integers(23, 64))


def assert_same_splits(args):
    """_best_splits and the reference give the same splits and the same
    rewritten bag on the arguments args, each on its own copy of the bag;
    returns the splits and the rewritten bag."""
    presort, bag, *rest = args
    written, expected_bag = bag.copy(), bag.copy()
    got = forest._best_splits(presort, written, *rest)
    expected = reference_best_splits(presort, expected_bag, *rest)
    for a, b in zip(got, expected):
        assert a.dtype.kind == b.dtype.kind and np.array_equal(a, b)
    assert np.array_equal(written, expected_bag)
    return (*got, written)


@settings(max_examples=100, deadline=None)
@given(node_batches(max_rows=300, classes=MANY_CLASSES))
def test_best_splits_match_full_width_scoring(batch):
    assert_same_splits(batch_arguments(batch)[2])


@pytest.mark.parametrize("split_rows", [1, 64, forest._SPLIT_ROWS])
@settings(max_examples=15, deadline=None)
@given(node_batches(max_rows=300, classes=MANY_CLASSES))
def test_grown_trees_match_full_width_scoring(split_rows, batch):
    # the drawn nodes' rows make one training set, grown two trees at a
    # time, with the batches cut at split_rows
    X, codes = batch_arguments(batch)[:2]
    n_classes, m_try, min_leaf = batch[1:]
    seed = batch[0][0][2]

    def grow():
        rngs = [np.random.default_rng([seed, t]) for t in range(2)]
        samples = [rng.integers(0, len(X), len(X)) for rng in rngs]
        return forest._grow_block(X, codes, n_classes, rngs, samples, m_try, None, min_leaf)

    with mock.patch.object(forest, "_SPLIT_ROWS", split_rows):
        grown = grow()
        with mock.patch.object(forest, "_best_splits", reference_best_splits):
            expected = grow()
    for a, b in zip(grown, expected):
        assert np.array_equal(a, b)


# Rows at 0, 1/8, ..., 7/8 whose classes read the same both ways: the cut
# after k rows and the one after 8 - k have the same float gain, and the
# cuts after 1, 2, 6 and 7 rows all reach the node's best.
MIRRORED = np.array([2, 0, 1, 1, 1, 1, 0, 2])


def gini(counts, n):
    return 1.0 - np.sum(np.square(counts / n))


def test_mirrored_classes_tie_four_cuts():
    n = MIRRORED.size
    counts = np.bincount(MIRRORED)
    lefts = [np.bincount(MIRRORED[:k], minlength=3) for k in range(1, n)]
    gains = [
        gini(counts, n) - (k * gini(left, k) + (n - k) * gini(counts - left, n - k)) / n
        for k, left in enumerate(lefts, 1)
    ]
    assert [k for k, gain in enumerate(gains, 1) if gain == max(gains)] == [1, 2, 6, 7]


def mirrored_node_args(X, m_try, copies):
    """The _best_splits arguments of `copies` nodes on the rows of X with
    the MIRRORED classes, each over every feature, scored in one batch."""
    n = MIRRORED.size
    counts = np.bincount(MIRRORED, minlength=3)
    return (
        forest._presort(X, MIRRORED), np.tile(np.arange(n), copies), np.arange(copies) * n,
        np.full(copies, n), np.tile(counts, (copies, 1)), np.tile(np.arange(m_try), (copies, 1)), 1,
    )


@pytest.mark.parametrize("copies", [1, 3])
def test_first_of_tied_cuts_wins(copies):
    X = np.arange(MIRRORED.size)[:, None] / MIRRORED.size
    feature, threshold, n_left, left, _ = assert_same_splits(mirrored_node_args(X, 1, copies))
    # the cut after the first row, midway between 0 and 1/8
    assert feature.tolist() == [0] * copies
    assert threshold.tolist() == [1 / 16] * copies
    assert n_left.tolist() == [1] * copies
    assert left.tolist() == [[0, 0, 1]] * copies


def test_lower_of_tied_features_wins():
    # feature 1 runs the other way, and the mirrored classes give it the
    # same gains at the same cuts
    ranks = np.arange(MIRRORED.size)
    X = np.column_stack([ranks, ranks[::-1]]) / MIRRORED.size
    for X_k, first_left in ((X, 0), (X[:, ::-1].copy(), MIRRORED.size - 1)):
        # with the columns swapped, feature 0 still wins, now with the
        # last row on its left
        feature, threshold, n_left, _, bag = assert_same_splits(mirrored_node_args(X_k, 2, 1))
        assert feature.tolist() == [0]
        assert threshold.tolist() == [1 / 16]
        assert n_left.tolist() == [1] and bag[0] == first_left
