"""From-scratch forest: splits, determinism, persistence, validation."""

from __future__ import annotations

import concurrent.futures.process
import contextlib
import functools
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_walk_table

from trifault import forest
from trifault.cli import generate_training_pool
from trifault.config import default_class_labels
from trifault.dataset import training_rows
from trifault.forest import (
    ForestParams,
    ModelFormatError,
    NodeTable,
    RandomForestModel,
    TrainingSet,
    _exact_stop,
    _stream_stop,
    _vote_codes,
    bootstrap_sample,
    cross_validate,
    label_universe_of,
    load_model,
    predict_batch,
    save_model,
    stratified_folds,
    train_forest,
    tree_rng,
)
from trifault.simulate import LABELS, NO_FAULT, FaultLabel, simulate

L0 = NO_FAULT
L1 = FaultLabel.from_switches([1])
L2 = FaultLabel.from_switches([2])


def masks(*labels):
    """The uint8 masks of labels, as training sets and predict_batch hold them."""
    return np.array([lab.mask for lab in labels], dtype=np.uint8)


DATA = Path(__file__).parent / "data"


def blob_set(rng, n_per_class=50, spread=0.4):
    X = np.concatenate(
        [rng.normal(loc=3.0 * k, scale=spread, size=(n_per_class, 3)) for k in range(3)]
    )
    y = np.repeat(masks(L0, L1, L2), n_per_class)
    return TrainingSet(features=X, labels=y, feature_names=("i_a", "i_b", "i_c"))


def tie_set(rng):
    """Overlapping blobs on a 0.25 grid: many equal values, many equal gains."""
    ts = blob_set(rng, n_per_class=40, spread=1.5)
    return TrainingSet(np.round(ts.features * 4) / 4, ts.labels, ts.feature_names)


# Model files that pin the feature and threshold tie-breaks, the depth and
# leaf limits and duplicate values. Their trees' features, leaf labels and
# roots are those that trainers growing one tree at a time, node by node,
# wrote: blob_forest_v1.txt before trees were held as node tables, the
# other two just before trees were grown in lockstep blocks. The v1 in
# their names is that trainer generation's. Format version 3 holds the
# thresholds on the unscaled rows, so the files were written again by the
# first trainer that split on those rows, and format version 4 holds the
# node columns as bytes, so they were written again, with the same nodes.
GOLDEN_MODELS = {
    "blob_forest_v1.txt": (
        lambda: blob_set(np.random.default_rng(20), n_per_class=20, spread=1.2),
        ForestParams(n_trees=4, seed=5),
    ),
    "blob_limits_forest_v1.txt": (
        lambda: blob_set(np.random.default_rng(22), n_per_class=40, spread=1.5),
        ForestParams(n_trees=4, m_try=2, max_depth=5, min_samples_leaf=3, seed=6),
    ),
    "tie_forest_v1.txt": (
        lambda: tie_set(np.random.default_rng(23)),
        ForestParams(n_trees=4, m_try=3, seed=7),
    ),
}


# sha256 of the desk pool's feature bytes and of the desk model file
DESK_POOL_SHA256 = "086452f74f3b01e0cda3cffd4a058c04a4ba92a527e9d4b0019a96b7e8992073"
DESK_MODEL_SHA256 = "d0f2195a958032d224732f7e0c1cf68ac91d2ac77c6e50e264c48223c35e780b"


class TestBootstrap:
    def test_draws_with_replacement_in_range(self):
        rng = np.random.default_rng(0)
        idx = bootstrap_sample(20, 20, rng)
        assert len(idx) == 20
        assert idx.min() >= 0 and idx.max() < 20
        assert len(np.unique(idx)) < 20  # replacement makes duplicates near-certain

    def test_deterministic_under_seeded_rng(self):
        a = bootstrap_sample(50, 50, np.random.default_rng(42))
        b = bootstrap_sample(50, 50, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestTrainingSetValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TrainingSet(
                features=np.zeros((3, 2)), labels=masks(L0, L1), feature_names=("a", "b")
            )

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError):
            TrainingSet(features=np.zeros((2, 2)), labels=masks(L0, L1), feature_names=("a",))

    @pytest.mark.parametrize(
        "labels",
        [
            (L0, L1),
            np.zeros(2, dtype=np.int64),
            np.zeros((2, 1), dtype=np.uint8),
            np.array([0, 64], dtype=np.uint8),
        ],
        ids=["label-tuple", "int64", "2-d", "mask-64"],
    )
    def test_refuses_labels_that_are_not_a_mask_array(self, labels):
        with pytest.raises(ValueError, match="label mask"):
            TrainingSet(features=np.zeros((2, 2)), labels=labels, feature_names=("a", "b"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_features_and_names_the_row(self, bad):
        ts = blob_set(np.random.default_rng(9), n_per_class=4)
        X = ts.features.copy()
        X[3, 1] = bad
        with pytest.raises(ValueError, match="feature row 3 is not finite"):
            TrainingSet(features=X, labels=ts.labels, feature_names=ts.feature_names)

    def test_label_universe_sorted_normal_first(self):
        # bit-string order: 000000 < 010000 < 100000
        universe = label_universe_of(masks(L2, L1, L0, L2))
        assert universe == (L0, L2, L1)
        assert universe[0].is_normal


def reference_children(feature):
    """Right-child links by recursive descent over whole preorder trees
    laid end to end; a leaf points at itself, and a left child is the
    next entry."""
    right = list(range(len(feature)))

    def past_subtree(k):
        if feature[k] < 0:
            return k + 1
        right[k] = past_subtree(k + 1)
        return past_subtree(right[k])

    k = 0
    while k < len(feature):
        k = past_subtree(k)
    return right


def leaf_of(nodes, right, row, root=0):
    """Index of the leaf a (normalized) row reaches from a root of a node
    table whose right-child links are right."""
    k = root
    while nodes.feature[k] >= 0:
        k = k + 1 if row[nodes.feature[k]] <= nodes.threshold[k] else right[k]
    return k


def grow_tree(X, labels, m_try, rng, max_depth=None, min_samples_leaf=1):
    """One tree grown by the lockstep grower on all the given rows (already
    normalized); its leaf codes index label_universe_of(labels)."""
    classes, codes = np.unique(labels, return_inverse=True)
    X = np.asarray(X, dtype=float)
    feature, threshold, leaf_code, _ = forest._grow_block(
        X, codes, classes.size, [rng], [np.arange(len(X))], m_try, max_depth, min_samples_leaf
    )
    return NodeTable(feature, threshold, leaf_code)


class TestSingleTree:
    def test_pure_node_becomes_leaf(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        tree = grow_tree(X, masks(L0, L0), m_try=1, rng=np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]
        assert label_universe_of(masks(L0, L0))[tree.leaf_code[0]] == L0

    def test_separable_data_fits_exactly(self):
        rng = np.random.default_rng(1)
        ts = blob_set(rng)
        tree = grow_tree(ts.features, ts.labels, m_try=3, rng=np.random.default_rng(2))
        universe = label_universe_of(ts.labels)
        right = reference_children(tree.feature.tolist())
        # walk every training row through the tree
        for row, mask in zip(ts.features, ts.labels):
            assert universe[tree.leaf_code[leaf_of(tree, right, row)]].mask == mask

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(3)
        ts = blob_set(rng)
        tree = grow_tree(ts.features, ts.labels, m_try=3, rng=np.random.default_rng(0), max_depth=1)
        # preorder puts every child after its parent
        right = reference_children(tree.feature.tolist())
        depth = np.zeros(tree.feature.size, dtype=int)
        for k in np.flatnonzero(tree.feature >= 0):
            depth[k + 1] = depth[right[k]] = depth[k] + 1
        assert depth.max() <= 1

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(4)
        ts = blob_set(rng, n_per_class=20)
        tree = grow_tree(
            ts.features, ts.labels, m_try=3, rng=np.random.default_rng(0), min_samples_leaf=5
        )
        right = reference_children(tree.feature.tolist())
        rows_per_leaf = Counter(leaf_of(tree, right, row) for row in ts.features)
        assert set(rows_per_leaf) == set(np.flatnonzero(tree.feature < 0).tolist())
        assert min(rows_per_leaf.values()) >= 5

    def test_split_between_adjacent_floats_sends_the_upper_row_right(self):
        # the midpoint of a value and the next float up rounds to the upper
        # value, which would send both rows left again and again
        below = np.nextafter(1.0, 0.0)
        tree = grow_tree(
            np.array([[below], [1.0]]), masks(L0, L1), m_try=1, rng=np.random.default_rng(0),
            max_depth=5,
        )
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == below
        assert tree.leaf_code.tolist() == [-1, 0, 1]

    def test_node_without_gain_becomes_leaf(self):
        # XOR: every cut leaves both sides as mixed as the node
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] * 3)
        tree = grow_tree(X, np.tile(masks(L0, L0, L1, L1), 3), m_try=2, rng=np.random.default_rng(0))
        assert tree.feature.tolist() == [-1]


def reference_tree(X, codes, sample, n_classes, m_try, max_depth, min_leaf, rng):
    """(feature, threshold, leaf_code) of each node of one tree, grown one
    node at a time in preorder: the grower that lockstep growth replaced,
    kept as its reference."""
    n_features = X.shape[1]
    nodes = []
    stack = [(sample, 0)]
    while stack:
        idx, depth = stack.pop()
        counts = np.bincount(codes[idx], minlength=n_classes).astype(float)
        n = idx.size
        limited = max_depth is not None and depth >= max_depth
        if counts.max() == n or limited or n < 2 * min_leaf or n < 2:
            nodes.append((-1, 0.0, int(np.argmax(counts))))
            continue
        feats = range(n_features)
        if m_try < n_features:
            feats = np.sort(rng.choice(n_features, size=m_try, replace=False))
        p = counts / n
        parent_gini = 1.0 - float(np.sum(p * p))
        best_gain, best = 0.0, None
        for f in feats:
            v = X[idx, f]
            order = np.argsort(v, kind="stable")
            vs, ys = v[order], codes[idx][order]
            change = np.nonzero(vs[1:] != vs[:-1])[0]
            change = change[(change + 1 >= min_leaf) & (n - change - 1 >= min_leaf)]
            if change.size == 0:
                continue
            cum = np.zeros((n, n_classes))
            cum[np.arange(n), ys] = 1.0
            np.cumsum(cum, axis=0, out=cum)
            left_counts = cum[change]
            left_n = (change + 1).astype(float)
            right_counts = counts - left_counts
            right_n = n - left_n
            gini_left = 1.0 - np.sum(np.square(left_counts / left_n[:, None]), axis=1)
            gini_right = 1.0 - np.sum(np.square(right_counts / right_n[:, None]), axis=1)
            gains = parent_gini - (left_n * gini_left + right_n * gini_right) / n
            j = int(np.argmax(gains))
            if gains[j] > best_gain:
                a, b = vs[change[j]], vs[change[j] + 1]
                mid = (a + b) / 2.0  # rounds up to b only when b is the float after a
                best_gain, best = float(gains[j]), (f, mid if mid < b else a)
        if best is None or best_gain <= forest._MIN_GAIN:
            nodes.append((-1, 0.0, int(np.argmax(counts))))
            continue
        f, thr = best
        go_left = X[idx, f] <= thr
        nodes.append((int(f), float(thr), -1))
        stack += [(idx[~go_left], depth + 1), (idx[go_left], depth + 1)]
    return nodes


def many_class_set(rng, n_classes=12, n_per_class=25):
    """Overlapping clusters of many fault classes, some features on a grid."""
    labels = default_class_labels()[:n_classes]
    X = np.concatenate(
        [rng.normal(loc=rng.uniform(0, 3, 3), size=(n_per_class, 3)) for _ in labels]
    )
    X[:, 2] = np.round(X[:, 2] * 2) / 2
    y = np.repeat(masks(*labels), n_per_class)
    return TrainingSet(features=X, labels=y, feature_names=("i_a", "i_b", "i_c"))


def grid_many_class_set(rng):
    """many_class_set with every feature on a 0.5 grid, so that most
    equal-value groups mix classes and some hold one class only."""
    ts = many_class_set(rng)
    return TrainingSet(np.round(ts.features * 2) / 2, ts.labels, ts.feature_names)


class TestLockstepGrowth:
    @pytest.mark.parametrize(
        "make_set, params",
        [
            (
                lambda: blob_set(np.random.default_rng(30), spread=1.5),
                ForestParams(n_trees=6, seed=1),
            ),
            (lambda: tie_set(np.random.default_rng(31)), ForestParams(n_trees=6, m_try=2, seed=2)),
            (
                lambda: tie_set(np.random.default_rng(32)),
                ForestParams(n_trees=6, m_try=1, max_depth=3, min_samples_leaf=4, seed=3),
            ),
            (lambda: many_class_set(np.random.default_rng(33)), ForestParams(n_trees=6, seed=4)),
            (
                lambda: many_class_set(np.random.default_rng(34)),
                ForestParams(n_trees=6, m_try=2, max_depth=4, seed=5),
            ),
            *(
                (
                    lambda: grid_many_class_set(np.random.default_rng(37)),
                    ForestParams(n_trees=6, m_try=1, min_samples_leaf=leaf, seed=leaf),
                )
                for leaf in (1, 2, 3)
            ),
        ],
        ids=[
            "blobs", "ties", "ties-limits", "many-classes", "many-classes-limits",
            "grid-leaf-1", "grid-leaf-2", "grid-leaf-3",
        ],
    )
    def test_forest_equals_trees_grown_one_node_at_a_time(self, make_set, params):
        ts = make_set()
        model = train_forest(ts, params)
        X = ts.features
        codes = np.array([model.label_universe.index(LABELS[m]) for m in ts.labels])
        m_try = params.resolved_m_try(X.shape[1])
        nodes = []
        for t in range(params.n_trees):
            rng = tree_rng(params.seed, t)
            sample = bootstrap_sample(len(X), len(X), rng)
            nodes += reference_tree(
                X, codes, sample, len(model.label_universe), m_try,
                params.max_depth, params.min_samples_leaf, rng,
            )
        feature, threshold, leaf_code = map(np.array, zip(*nodes))
        assert np.array_equal(model.nodes.feature, feature)
        assert np.array_equal(model.nodes.threshold, threshold)
        assert np.array_equal(model.nodes.leaf_code, leaf_code)

    @pytest.mark.parametrize(
        "make_set",
        [
            lambda: blob_set(np.random.default_rng(35), spread=1.5),
            lambda: tie_set(np.random.default_rng(36)),
        ],
        ids=["blobs", "ties"],
    )
    def test_split_batches_do_not_change_bytes(self, make_set, monkeypatch):
        # one node per batch, a few nodes per batch, and every node of a step in one batch
        ts = make_set()
        params = ForestParams(n_trees=6, m_try=2, seed=8)
        default = model_bytes(train_forest(ts, params))
        for split_rows in (1, 64, 10**9):
            monkeypatch.setattr(forest, "_SPLIT_ROWS", split_rows)
            assert model_bytes(train_forest(ts, params)) == default

    @pytest.mark.parametrize("m_try", [1, 2])
    @pytest.mark.parametrize(
        "make_set",
        [
            lambda: tie_set(np.random.default_rng(39)),
            lambda: grid_many_class_set(np.random.default_rng(40)),
        ],
        ids=["ties", "grid"],
    )
    def test_row_order_in_the_bag_does_not_change_nodes(self, make_set, m_try):
        # each node sorts its own rows, so the order its bag range holds
        # them in is never read
        ts = make_set()
        X = ts.features
        classes, codes = np.unique(ts.labels, return_inverse=True)

        def grow(shuffle):
            rngs = [tree_rng(10, t) for t in range(6)]
            samples = [bootstrap_sample(len(X), len(X), rng) for rng in rngs]
            if shuffle:
                samples = [np.random.default_rng(t).permutation(s) for t, s in enumerate(samples)]
            return forest._grow_block(X, codes, classes.size, rngs, samples, m_try, None, 1)

        for kept, shuffled in zip(grow(False), grow(True)):
            assert np.array_equal(kept, shuffled)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_one_feature_choices_continue_as_bulk_integers(self, k):
        # With m_try = 1 a tree draws its features in bulk: after the
        # bootstrap, one choice(k, 1, replace=False) per split attempt is
        # the same stream as integers(0, k), in chunks of any size.
        one_at_a_time, in_chunks = tree_rng(k, 0), tree_rng(k, 0)
        for rng in (one_at_a_time, in_chunks):
            bootstrap_sample(301, 301, rng)
        draws = [int(one_at_a_time.choice(k, 1, replace=False)[0]) for _ in range(50)]
        chunks = [in_chunks.integers(0, k, size=size) for size in (17, 33)]
        assert draws == np.concatenate(chunks).tolist()

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_draw_chunk_does_not_change_bytes(self, chunk, monkeypatch):
        # these trees have fewer than 150 nodes, so they draw fewer features
        # than the default chunk holds: only small chunks refill a pool
        ts = grid_many_class_set(np.random.default_rng(38))
        params = ForestParams(n_trees=6, m_try=1, min_samples_leaf=2, seed=9)
        default = model_bytes(train_forest(ts, params))
        monkeypatch.setattr(forest, "_DRAW_CHUNK", chunk)
        assert model_bytes(train_forest(ts, params)) == default


@contextlib.contextmanager
def grown_blocks(monkeypatch):
    """The tree count of each block that in-process training grows."""
    blocks, grow = [], forest._grow_indexed_block

    def counted(X_norm, codes, n_classes, params, trees):
        blocks.append(len(trees))
        return grow(X_norm, codes, n_classes, params, trees)

    with monkeypatch.context() as patch:
        patch.setattr(forest, "_grow_indexed_block", counted)
        yield blocks


def random_preorder_tree(rng, depth=0):
    """Feature column of a random full binary tree in preorder."""
    if depth == 8 or rng.random() < 0.35:
        return [-1]
    left, right = random_preorder_tree(rng, depth + 1), random_preorder_tree(rng, depth + 1)
    return [int(rng.integers(0, 3)), *left, *right]


class TestPreorderChildren:
    """Right-child links derived from the feature column against recursive descent."""

    @pytest.mark.parametrize(
        "feature",
        [
            [-1],  # a single leaf
            [0, 1, 2, -1, -1, -1, -1],  # left-deep
            [0, -1, 1, -1, 2, -1, -1],  # right-deep
            [-1, 0, -1, -1, 2, 1, -1, -1, -1, -1],  # stacked: leaf, stump, left-deep, leaf
        ],
    )
    def test_small_tables_match_reference(self, feature):
        right = forest._preorder_children(np.array(feature))
        assert right.tolist() == reference_children(feature)

    def test_stacked_random_trees_match_reference(self):
        rng = np.random.default_rng(9)
        feature = [f for _ in range(40) for f in random_preorder_tree(rng)]
        right = forest._preorder_children(np.array(feature))
        assert right.tolist() == reference_children(feature)

    def test_trained_forest_links_match_reference(self):
        model = train_forest(blob_set(np.random.default_rng(10)), ForestParams(n_trees=5, seed=3))
        # the model stores no links; the walk table derives them
        assert model.nodes._fields == ("feature", "threshold", "leaf_code")
        right = forest._preorder_children(model.nodes.feature)
        assert right.tolist() == reference_children(model.nodes.feature.tolist())
        loaded = load_bytes(model_bytes(model))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.nodes, model.nodes))
        assert np.array_equal(loaded.roots, model.roots)


class TestForestParams:
    def test_default_m_try_is_sqrt_floor(self):
        assert ForestParams(n_trees=1).resolved_m_try(3) == 1
        assert ForestParams(n_trees=1).resolved_m_try(36) == 6
        assert ForestParams(n_trees=1, m_try=2).resolved_m_try(3) == 2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError):
            ForestParams(n_trees=1, m_try=0)
        with pytest.raises(ValueError):
            ForestParams(n_trees=1, min_samples_leaf=0)


class TestForestTraining:
    def test_accuracy_on_separable_blobs(self):
        ts = blob_set(np.random.default_rng(5))
        model = train_forest(ts, ForestParams(n_trees=16, seed=1))
        pred = predict_batch(model, np.asarray(ts.features))
        assert np.mean(pred == ts.labels) == 1.0

    def test_seeded_training_is_reproducible(self):
        ts = blob_set(np.random.default_rng(6))
        a = train_forest(ts, ForestParams(n_trees=8, seed=9))
        b = train_forest(ts, ForestParams(n_trees=8, seed=9))
        assert model_bytes(a) == model_bytes(b)

    def test_different_seeds_differ(self):
        ts = blob_set(np.random.default_rng(6))
        a = train_forest(ts, ForestParams(n_trees=8, seed=9))
        b = train_forest(ts, ForestParams(n_trees=8, seed=10))
        assert model_bytes(a) != model_bytes(b)

    def test_parallel_equals_sequential(self):
        ts = blob_set(np.random.default_rng(7))
        seq = train_forest(ts, ForestParams(n_trees=12, seed=3), n_jobs=1)
        par = train_forest(ts, ForestParams(n_trees=12, seed=3), n_jobs=2)
        assert model_bytes(seq) == model_bytes(par)

    def test_parallel_equals_sequential_across_blocks(self, monkeypatch):
        ts = blob_set(np.random.default_rng(7), spread=1.2)
        one_block = model_bytes(train_forest(ts, ForestParams(n_trees=25, seed=3)))
        # blocks of 10, 10 and 5 trees, in-process and over two workers
        monkeypatch.setattr(forest, "_GROW_BAG_BYTES", 10 * ts.n_rows * forest._bag_dtype(ts.n_rows).itemsize)
        with grown_blocks(monkeypatch) as blocks:
            seq = train_forest(ts, ForestParams(n_trees=25, seed=3), n_jobs=1)
        assert blocks == [10, 10, 5]
        par = train_forest(ts, ForestParams(n_trees=25, seed=3), n_jobs=2)
        assert model_bytes(seq) == model_bytes(par) == one_block

    def test_blocks_past_the_16_bit_edge(self, monkeypatch):
        # 65 537 rows of one class but the last, which lies apart on every
        # feature: a tree splits it off only if its bag holds that row's
        # index, 65 536, which does not fit 16 bits
        X = np.random.default_rng(43).normal(size=(2**16 + 1, 3))
        X[-1] = 10.0
        labels = masks(L0, L1)[(np.arange(len(X)) == len(X) - 1).astype(int)]
        ts = TrainingSet(features=X, labels=labels, feature_names=("i_a", "i_b", "i_c"))
        # both trees' bootstraps draw the last row, so both split it off
        params = ForestParams(n_trees=2, max_depth=3, seed=9)
        assert forest._bag_dtype(ts.n_rows) == np.uint32 and forest._bag_dtype(2**16) == np.uint16
        with grown_blocks(monkeypatch) as blocks:
            model = train_forest(ts, params)
        assert (model.nodes.feature[model.roots] >= 0).all()
        monkeypatch.setattr(forest, "_GROW_BAG_BYTES", ts.n_rows * forest._bag_dtype(ts.n_rows).itemsize)
        with grown_blocks(monkeypatch) as blocks_of_one:
            assert model_bytes(train_forest(ts, params)) == model_bytes(model)
        assert (blocks, blocks_of_one) == ([2], [1, 1])

    def test_a_block_bag_stays_within_its_bytes(self):
        # the desk forest, 264 trees on 8000 rows, grows as one block, and
        # no bag outgrows the largest the 4 M-entry cap allowed (174 trees
        # of 8000 int32 rows), however many trees are asked for
        assert forest._block_trees(8000, 264, 1) == 264
        assert forest._block_trees(8000, 264, 2) == 132
        assert forest._GROW_BAG_BYTES <= 174 * 8000 * 4
        for n_rows in (150, 8000, 2**16, 2**16 + 1, 10**6):
            for n_trees in (1, 264, 10**4):
                block = forest._block_trees(n_rows, n_trees, 1)
                assert 1 <= block <= n_trees
                assert block * n_rows * forest._bag_dtype(n_rows).itemsize <= forest._GROW_BAG_BYTES

    def test_jobs_are_capped_by_the_cores_this_process_may_use(self, monkeypatch):
        ts = blob_set(np.random.default_rng(7))
        sequential = model_bytes(train_forest(ts, ForestParams(n_trees=12, seed=3)))

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started on one core")

        monkeypatch.setattr(forest, "_cores", lambda: 1)
        # train_forest imports the pool class from here when it needs one
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
        capped = train_forest(ts, ForestParams(n_trees=12, seed=3), n_jobs=2)
        assert model_bytes(capped) == sequential

    def test_dead_workers_name_the_missing_main_guard(self, tmp_path):
        # each worker re-runs a script without the guard, which starts the
        # pool again while the worker is still starting, so every one dies
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import numpy as np\n"
            "from trifault.forest import ForestParams, TrainingSet, train_forest\n"
            "X = np.random.default_rng(0).normal(size=(60, 3))\n"
            "labels = (X[:, 0] > 0).astype(np.uint8)\n"
            "ts = TrainingSet(X, labels, ('a', 'b', 'c'))\n"
            "train_forest(ts, ForestParams(n_trees=4, seed=1), n_jobs=2)\n",
            encoding="utf-8",
        )
        src = str(Path(forest.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert re.search(r'^RuntimeError: .*`if __name__ == "__main__":` guard', done.stderr, re.M)
        # a starting worker refuses before it makes a pool of its own
        assert "leaked semaphore" not in done.stderr

    def test_per_tree_rng_isolated_by_index(self):
        a = tree_rng(5, 0).integers(0, 1000, 4)
        b = tree_rng(5, 1).integers(0, 1000, 4)
        assert not np.array_equal(a, b)

    def test_rejects_single_class(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="2 distinct labels"):
            train_forest(
                TrainingSet(features=X, labels=np.zeros(4, dtype=np.uint8), feature_names=("a", "b")),
                ForestParams(n_trees=2),
            )

    def test_power_of_two_scale_scales_only_its_thresholds(self):
        # a split depends only on the order of a feature's values, and
        # scaling by a power of two keeps that order and every midpoint's bits
        ts = blob_set(np.random.default_rng(8))
        scaled = np.array(ts.features, copy=True)
        scaled[:, 1] *= 8.0
        ts_scaled = TrainingSet(
            features=scaled, labels=ts.labels, feature_names=ts.feature_names
        )
        a = train_forest(ts, ForestParams(n_trees=6, seed=2))
        b = train_forest(ts_scaled, ForestParams(n_trees=6, seed=2))
        assert np.array_equal(a.nodes.feature, b.nodes.feature)
        assert np.array_equal(a.nodes.leaf_code, b.nodes.leaf_code)
        assert np.array_equal(a.roots, b.roots)
        on_scaled = a.nodes.feature == 1
        assert np.count_nonzero(a.nodes.threshold[on_scaled])
        assert np.array_equal(np.where(on_scaled, 8.0 * a.nodes.threshold, a.nodes.threshold), b.nodes.threshold)
        test = np.asarray(ts.features)[::7]
        test_scaled = np.array(test, copy=True)
        test_scaled[:, 1] *= 8.0
        assert list(predict_batch(a, test)) == list(predict_batch(b, test_scaled))

    def test_grows_on_rows_near_the_float_limit(self, tmp_path):
        # four classes of rows near -1.7e308 to 1.7e308, healthy ones among
        # them: the sum of two neighbouring values, and the square of one,
        # overflows
        labels = (L2, L0, L1, FaultLabel.from_switches([1, 2]))
        rng = np.random.default_rng(9)
        X = np.concatenate([rng.uniform(c - 0.15, c + 0.15, (30, 3)) for c in (-1.6, -1.2, 1.2, 1.6)]) * 1e308
        y = np.repeat(masks(*labels), 30)
        model = train_forest(TrainingSet(X, y, ("i_a", "i_b", "i_c")), ForestParams(n_trees=6, seed=3))
        assert np.isfinite(model.nodes.threshold).all()
        assert np.array_equal(predict_batch(model, X), y)
        assert model.healthy_rms == pytest.approx(np.sqrt(np.mean(np.square(X[30:60] / 1e308))) * 1e308)
        save_model(model, tmp_path / "model.txt")
        save_model(load_model(tmp_path / "model.txt"), tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "model.txt").read_bytes()


def model_bytes(model) -> bytes:
    """The bytes that save_model writes for the model."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        return path.read_bytes()


def load_bytes(data: bytes):
    """load_model of a file that holds the bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_bytes(data)
        return load_model(path)


def forest_of(*trees, n_features=1):
    """A model of n_features features and the labels 000000 and 100000,
    built from its columns, whose tree t holds the nodes trees[t] in
    preorder: `I <feature> <threshold>` for an internal node, `L <label>`
    for a leaf."""
    labels = (L0, L1)
    nodes = [node.split() for tree in trees for node in tree]
    internal = [kind == "I" for kind, *_ in nodes]
    sizes = np.array([len(tree) for tree in trees])
    return RandomForestModel(
        nodes=NodeTable(
            np.array([int(n[1]) if i else -1 for n, i in zip(nodes, internal)], forest._feature_dtype(n_features)),
            np.array([float(n[2]) if i else 0.0 for n, i in zip(nodes, internal)]),
            np.array([-1 if i else labels.index(FaultLabel.from_string(n[1])) for n, i in zip(nodes, internal)],
                     np.int8),
        ),
        roots=np.cumsum(sizes) - sizes,
        feature_names=tuple(f"f{k}" for k in range(n_features)),
        healthy_rms=1.0,
        label_universe=labels,
        params=ForestParams(n_trees=len(trees)),
    )


def single_leaf_forest(*leaf_labels):
    """A one-feature model whose tree t is a single leaf voting leaf_labels[t]."""
    return forest_of(*([f"L {label}"] for label in leaf_labels))


class TestVoting:
    def test_predict_returns_vote_counts(self):
        ts = blob_set(np.random.default_rng(11))
        model = train_forest(ts, ForestParams(n_trees=10, seed=0))
        votes = _vote_codes(model, ts.features[:1])[0]
        label = LABELS[predict_batch(model, ts.features[:1])[0]]
        assert votes.sum() == 10
        assert votes[model.label_universe.index(label)] == votes.max()

    def test_tie_breaks_by_sorted_label_order(self):
        # two rows of each class at the same point force split-free leaves;
        # a 1-vs-1 forest of stumps trained on conflicting data lands ties
        X = np.array([[0.0], [0.0]])
        ts = TrainingSet(features=X, labels=masks(L0, L1), feature_names=("f",))
        model = train_forest(ts, ForestParams(n_trees=2, seed=0))
        votes = _vote_codes(model, np.array([[0.0]]))[0]
        # identical feature values leave no split; every tree's leaf holds
        # a bootstrap mix and ties inside a leaf resolve to the first
        # label in sorted order
        best = min(range(votes.size), key=lambda k: (-votes[k], model.label_universe[k]))
        assert predict_batch(model, np.array([[0.0]])).tolist() == [model.label_universe[best].mask]

    def test_even_vote_tie_prefers_normal(self):
        # four single-leaf trees voting 2-2 between the all-zero label
        # and a fault label: the all-zero label sorts first and wins
        model = single_leaf_forest("000000", "100000", "000000", "100000")
        assert _vote_codes(model, np.array([[0.5]])).tolist() == [[2, 2]]
        assert predict_batch(model, np.array([[0.5]])).tolist() == [L0.mask]

    def test_batch_matches_single(self):
        ts = blob_set(np.random.default_rng(12))
        model = train_forest(ts, ForestParams(n_trees=8, seed=1))
        rows = np.asarray(ts.features)[::11]
        batch = predict_batch(model, rows)
        assert [predict_batch(model, row[None])[0] for row in rows] == batch.tolist()

    def test_rejects_wrong_width(self):
        ts = blob_set(np.random.default_rng(13))
        model = train_forest(ts, ForestParams(n_trees=2, seed=1))
        with pytest.raises(ValueError):
            predict_batch(model, np.zeros((2, 5)))


class TestBlockedWalk:
    """The tree-block walk against a per-row, per-tree reference walk."""

    @pytest.fixture(scope="class")
    def walked(self):
        # 37 trees: two full blocks and a partial one; 9000 rows: more
        # than one span, with a partial span at the end
        ts = blob_set(np.random.default_rng(21), spread=1.2)
        model = train_forest(ts, ForestParams(n_trees=37, seed=4))
        X = np.random.default_rng(22).uniform(-2.0, 8.0, size=(9000, 3))
        counts = np.zeros((len(X), len(model.label_universe)), dtype=int)
        right = reference_children(model.nodes.feature.tolist())
        for root in model.roots:
            for i, row in enumerate(X):
                counts[i, model.nodes.leaf_code[leaf_of(model.nodes, right, row, root)]] += 1
        return model, X, counts

    def test_full_counts_match_reference(self, walked):
        model, X, counts = walked
        assert np.array_equal(_vote_codes(model, X), counts)

    def test_labels_match_reference_majority(self, walked):
        model, X, counts = walked
        # argmax takes the first maximum: the sorted-label tie-break
        expected = [model.label_universe[k].mask for k in np.argmax(counts, axis=1)]
        assert predict_batch(model, X).tolist() == expected

    @pytest.mark.parametrize("span_rows", [1, 7, 20000])
    @pytest.mark.parametrize("cores", [1, 3])
    def test_votes_do_not_depend_on_spans_or_threads(self, walked, monkeypatch, span_rows, cores):
        model, X, counts = walked
        # one-row spans walk slowly, so they take a prefix
        n = 900 if span_rows == 1 else len(X)
        monkeypatch.setattr(forest, "_SPAN_ROWS", span_rows)
        monkeypatch.setattr(forest, "_cores", lambda: cores)
        # frequent thread switches make a span taken twice or a lost vote
        # update likelier to show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert np.array_equal(_vote_codes(model, X[:n]), counts[:n])
            labels = predict_batch(model, X[:n])
        finally:
            sys.setswitchinterval(interval)
        assert labels.tolist() == [model.label_universe[k].mask for k in np.argmax(counts[:n], axis=1)]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 7, 64, 4096]), st.sampled_from([1, 2]), st.data())
    def test_labels_are_the_argmax_of_full_counts(self, walked, span_rows, cores, data):
        # predict_batch reduces each span to its labels on its own, from
        # early-stop counts; up to 40 spans keep one-row spans quick
        model, X, _ = walked
        n = data.draw(st.integers(0, min(len(X), 40 * span_rows + 1)), label="rows")
        lo = data.draw(st.integers(0, len(X) - n), label="first row")
        rows = X[lo : lo + n]
        with mock.patch.object(forest, "_SPAN_ROWS", span_rows), mock.patch.object(forest, "_cores", lambda: cores):
            labels = predict_batch(model, rows)
            full = _vote_codes(model, rows)
        assert labels.dtype == np.uint8 and labels.shape == (n,)
        assert labels.tolist() == [model.label_universe[k].mask for k in np.argmax(full, axis=1)]

    def test_no_thread_outlives_a_call(self, walked, monkeypatch):
        model, X, _ = walked
        walkers = set()
        walk = forest._walk_block

        def traced_walk(*args):
            walkers.add(threading.get_ident())
            return walk(*args)

        monkeypatch.setattr(forest, "_walk_block", traced_walk)
        monkeypatch.setattr(forest, "_cores", lambda: 3)
        before = threading.active_count()
        predict_batch(model, X)
        assert len(walkers) > 1
        assert threading.active_count() == before
        # the --jobs workers are forked after inference ran in this process
        ts = blob_set(np.random.default_rng(23))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sequential = model_bytes(train_forest(ts, ForestParams(n_trees=4, seed=2)))
            parallel = model_bytes(train_forest(ts, ForestParams(n_trees=4, seed=2), n_jobs=2))
        assert parallel == sequential

    def test_predict_counts_sum_to_tree_count(self, walked):
        model, X, _ = walked
        assert _vote_codes(model, X[::1000]).sum(axis=1).tolist() == [37] * 9

    def test_empty_input_gives_no_labels(self, walked):
        model, _, _ = walked
        labels = predict_batch(model, np.empty((0, 3)))
        assert labels.dtype == np.uint8 and labels.shape == (0,)

    def test_labels_are_uint8_masks(self, walked):
        model, X, _ = walked
        labels = predict_batch(model, X[:50])
        assert labels.dtype == np.uint8 and labels.shape == (50,)
        assert set(labels.tolist()) <= {lab.mask for lab in model.label_universe}

    def test_margin_equal_to_trees_left_is_not_decided(self):
        # after the first 16-tree block the fault label leads by 16 with
        # 16 trees left; those all vote healthy, and the 16-16 tie goes
        # to the healthy label, which sorts first
        model = single_leaf_forest(*["100000"] * 16, *["000000"] * 16)
        assert predict_batch(model, np.zeros((1, 1))).tolist() == [L0.mask]
        assert _vote_codes(model, np.zeros((1, 1))).tolist() == [[16, 16]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_rows(self, walked, bad):
        model, _, _ = walked
        rows = np.zeros((3, 3))
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="feature row 1 is not finite"):
            predict_batch(model, rows)
        with pytest.raises(ValueError, match="feature row 0 is not finite"):
            _vote_codes(model, rows[1:2])

    def test_call_of_span_rows_plus_one_walks_on_two_threads(self, walked, monkeypatch):
        model, X, counts = walked
        n = forest._SPAN_ROWS + 1
        # each thread's first walk waits here until the other thread's has
        # started, so a call that walks on one thread only times out
        both_walking = threading.Barrier(2, timeout=10)
        walkers = set()
        walk = forest._walk_block

        def traced_walk(*args):
            if threading.get_ident() not in walkers:
                walkers.add(threading.get_ident())
                both_walking.wait()
            return walk(*args)

        monkeypatch.setattr(forest, "_walk_block", traced_walk)
        monkeypatch.setattr(forest, "_cores", lambda: 2)
        assert np.array_equal(_vote_codes(model, X[:n]), counts[:n])
        # the calling thread walks a span of its own instead of waiting
        assert len(walkers) == 2 and threading.get_ident() in walkers

    def test_call_of_span_rows_walks_on_the_calling_thread(self, walked, monkeypatch):
        model, X, counts = walked
        n = forest._SPAN_ROWS
        walkers = set()
        walk = forest._walk_block

        def traced_walk(*args):
            walkers.add(threading.get_ident())
            return walk(*args)

        monkeypatch.setattr(forest, "_walk_block", traced_walk)
        monkeypatch.setattr(forest, "_cores", lambda: 2)
        assert np.array_equal(_vote_codes(model, X[:n]), counts[:n])
        assert walkers == {threading.get_ident()}

    @pytest.mark.parametrize(
        "n_rows, cores, span_rows, n_spans",
        [(0, 2, 4096, 0), (1, 3, 4096, 1), (200, 2, 4096, 1), (1999, 2, 4096, 1),
         (2000, 2, 4096, 1), (2001, 1, 4096, 1), (4096, 2, 4096, 1), (4097, 2, 4096, 2), (9000, 3, 4096, 3), (9000, 1, 4096, 3),
         (120000, 2, 4096, 30), (9000, 2, 7, 1286), (5, 3, 1, 5)],
    )
    def test_spans_are_equal_and_shared_by_the_cores(self, monkeypatch, n_rows, cores, span_rows, n_spans):
        monkeypatch.setattr(forest, "_SPAN_ROWS", span_rows)
        monkeypatch.setattr(forest, "_cores", lambda: cores)
        walked = []
        lock = threading.Lock()

        def work(lo, hi):
            with lock:
                walked.append((lo, hi))
            return lo, hi

        spans = forest._on_all_cores(work, n_rows)
        assert spans == sorted(walked)
        assert len(spans) == n_spans
        assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
        if spans:
            assert spans[0][0] == 0 and spans[-1][1] == n_rows
            sizes = [hi - lo for lo, hi in spans]
            assert max(sizes) - min(sizes) <= 1 and 1 <= min(sizes) and max(sizes) <= span_rows

    def test_each_span_is_taken_once_by_threads_that_race_for_them(self, monkeypatch):
        # eight threads on any number of cores race for one-row spans; a span
        # taken twice or skipped shows in the list of span starts
        monkeypatch.setattr(forest, "_SPAN_ROWS", 1)
        monkeypatch.setattr(forest, "_cores", lambda: 8)
        taken = []
        walkers = set()

        def work(lo, hi):
            walkers.add(threading.get_ident())
            taken.append(lo)
            return lo, hi

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            spans = forest._on_all_cores(work, 4000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(4000))
        # whoever walked a span, the results come back in row order
        assert spans == [(lo, lo + 1) for lo in range(4000)]
        assert len(walkers) > 1

    @pytest.mark.parametrize("failing", [0, 5, 9])
    def test_an_error_in_a_span_is_raised_and_no_thread_outlives_it(self, monkeypatch, failing):
        # span 0 is most likely walked by a helper, span 9 by the calling thread
        monkeypatch.setattr(forest, "_SPAN_ROWS", 1)
        monkeypatch.setattr(forest, "_cores", lambda: 3)

        def work(lo, hi):
            if lo == failing:
                raise ArithmeticError(f"span {lo}")
            return lo

        before = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"span {failing}"):
            forest._on_all_cores(work, 10)
        assert threading.active_count() == before

    def test_an_error_drops_the_spans_no_thread_has_started(self, monkeypatch):
        # the one helper takes span 0 and holds it until the calling thread,
        # which walks the last span first, has raised there; then the helper
        # must not go on through the 98 queued spans
        monkeypatch.setattr(forest, "_SPAN_ROWS", 1)
        monkeypatch.setattr(forest, "_cores", lambda: 2)
        walked, raised = [], threading.Event()

        def work(lo, hi):
            walked.append(lo)
            if lo == 0:
                raised.wait(timeout=60)
            if lo == 99:
                raised.set()
                raise ArithmeticError("span 99")
            return lo

        with pytest.raises(ArithmeticError, match="span 99"):
            forest._on_all_cores(work, 100)
        assert len(walked) < 10


def tree_codes(model, X):
    """(rows, trees) leaf label codes, each tree walked alone over the
    model's node table, all rows at once."""
    nodes = model.nodes
    right = np.array(reference_children(nodes.feature.tolist()))
    at = np.arange(len(X))
    codes = np.empty((len(X), model.n_trees), dtype=np.intp)
    for t, root in enumerate(model.roots):
        k = np.full(len(X), root)
        while (nodes.feature[k] >= 0).any():
            internal = nodes.feature[k] >= 0
            go_left = X[at, np.maximum(nodes.feature[k], 0)] <= nodes.threshold[k]
            k = np.where(internal & go_left, k + 1, right[k])  # a leaf's right link is itself
        codes[:, t] = nodes.leaf_code[k]
    return codes


def early_stop_reference(codes, n_classes, block=16):
    """Partial vote counts of a walk over blocks of trees that checks,
    after every block from the first, whether a row's leader beats the
    runner-up by more than the trees left, and stops walking it then."""
    n_rows, n_trees = codes.shape
    votes = np.zeros((n_rows, n_classes), dtype=np.intp)
    live = np.arange(n_rows)
    for b in range(0, n_trees, block):
        for t in range(b, min(b + block, n_trees)):
            votes[live, codes[live, t]] += 1
        top = np.sort(votes[live], axis=1)
        lead = top[:, -1] - (top[:, -2] if n_classes > 1 else 0)
        live = live[lead <= n_trees - min(b + block, n_trees)]
    return votes


class TestEarlyStop:
    """Partial counts of the early stop against a check after every block."""

    def test_desk_counts_match_a_check_after_every_block(self, desk_experiment):
        config = desk_experiment.config
        model = desk_experiment.model
        s13 = FaultLabel.from_switches([1, 3])
        rows = []
        # contested votes off the trained amplitude, clear ones at it
        for k, share in enumerate((0.7, 1.0, 1.3)):
            sim = config.sim_config(seed=40 + k)
            sim = replace(sim, amplitude=sim.amplitude * share)
            rows.append(simulate(sim, ((0.05, s13),), 0.1).currents()[::4])
        X = np.concatenate(rows)
        codes = tree_codes(model, X)
        n_classes = len(model.label_universe)
        full = np.stack([np.bincount(c, minlength=n_classes) for c in codes])
        assert np.array_equal(_vote_codes(model, X), full)
        partial = _vote_codes(model, X, _exact_stop)
        assert np.array_equal(partial, early_stop_reference(codes, n_classes))
        walked = partial.sum(axis=1)
        # rows stop at several blocks, and some are walked to the end
        assert len(np.unique(walked)) > 3 and (walked == model.n_trees).any()
        assert np.array_equal(np.argmax(partial, axis=1), np.argmax(full, axis=1))

    @pytest.mark.parametrize("n_trees, walked", [(31, 16), (32, 32), (33, 32), (47, 32), (64, 48)])
    def test_row_is_decided_at_the_first_block_past_half(self, n_trees, walked):
        # every tree votes the fault label: the lead equals the trees walked
        model = single_leaf_forest(*["100000"] * n_trees)
        X = np.zeros((3, 1))
        partial = _vote_codes(model, X, _exact_stop)
        assert np.array_equal(partial, early_stop_reference(tree_codes(model, X), 2))
        assert partial.tolist() == [[0, walked]] * 3


def overturn_chance(lead, walked, n_trees):
    """The beta-binomial chance that the n_trees - walked trees left end
    with the leader of `walked` votes, `lead` of them its own, not ahead of
    all the other labels together: its share Beta(lead + 1, walked - lead
    + 1) under a uniform prior, each later tree an independent draw."""
    def beta(a, b):  # B(a, b) of whole a, b
        return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))

    a, b, left = lead + 1, walked - lead + 1, n_trees - walked
    # k more votes leave the leader lead + k against walked - lead + left - k
    most = (walked - 2 * lead + left) // 2
    return sum(math.comb(left, k) * beta(k + a, left - k + b) for k in range(most + 1)) / beta(a, b)


# the stream's per-look bound on the chance that the trees left overturn or
# tie a row's leader
STOP_CHANCE = 1e-4


def looks_of(n_trees):
    """The looks of the stream's stop: 16, 32, 64, ... trees below n_trees."""
    return [16 << k for k in range(n_trees.bit_length()) if 16 << k < n_trees]


@functools.cache
def settle_reference(look, n_trees):
    """The fewest of `look` votes whose overturn_chance is at most
    STOP_CHANCE. A leader with at most half the votes is overturned or tied
    with a chance of about one half or more, so the search starts above
    half."""
    return next(lead for lead in range(look // 2 + 1, look + 1) if overturn_chance(lead, look, n_trees) <= STOP_CHANCE)


def stream_stop_reference(codes, n_classes):
    """Labels of the stream's stop, row by row: the leader of a row's first
    `look` votes at the first look where it holds settle_reference(look,
    n_trees) of them, else the full forest's."""
    n_trees = codes.shape[1]
    labels = np.stack([np.argmax(np.bincount(c, minlength=n_classes)) for c in codes])
    for r, c in enumerate(codes):
        for look in looks_of(n_trees):
            votes = np.bincount(c[:look], minlength=n_classes)
            if votes.max() >= settle_reference(look, n_trees):
                labels[r] = np.argmax(votes)
                break
    return labels


class TestStreamStop:
    """The statistical stop that classify_stream asks for."""

    def test_settled_first_block_outvotes_the_rest(self):
        # the first 16 trees vote S1, the other 48 healthy: the stream keeps
        # the settled leader, predict_batch walks on to the full forest's
        model = single_leaf_forest(*["100000"] * 16, *["000000"] * 48)
        X = np.zeros((3, 1))
        assert predict_batch(model, X, _stop=_stream_stop).tolist() == [L1.mask] * 3
        assert _vote_codes(model, X, _stream_stop).tolist() == [[0, 16]] * 3
        assert predict_batch(model, X).tolist() == [L0.mask] * 3

    def test_fourteen_of_sixteen_walks_on(self):
        # a leader with 14 of the first 16 votes is not settled
        model = single_leaf_forest(*["100000"] * 14, *["000000"] * 50)
        assert predict_batch(model, np.zeros((1, 1)), _stop=_stream_stop).tolist() == [L0.mask]
        assert _vote_codes(model, np.zeros((1, 1)), _stream_stop).sum() > 16

    def test_exact_stop_still_applies_after_each_block(self):
        # S1 holds 7 of the first 16 votes and 23 of the first 32, below the
        # 24 that settle it in a 64-tree forest, so the row walks on, in
        # 16-tree blocks as its span's only row; after 48 trees S1 leads by
        # 30 with 16 left
        model = single_leaf_forest(*["000000"] * 9, *["100000"] * 55)
        assert forest._settle_votes(32, 64) == 24
        assert _vote_codes(model, np.zeros((1, 1)), _stream_stop).tolist() == [[9, 39]]

    def test_a_later_look_stops_a_row_the_first_walks_on(self):
        # S1 holds 14 of the first 16 votes and 26 of the first 32, and the
        # other 232 trees vote healthy: the look at 32 trees keeps S1, while
        # predict_batch walks on to the full forest's label
        model = single_leaf_forest(*["000000"] * 2, *["100000"] * 14, *["000000"] * 4, *["100000"] * 12,
                                   *["000000"] * 232)
        assert predict_batch(model, np.zeros((1, 1)), _stop=_stream_stop).tolist() == [L1.mask]
        assert _vote_codes(model, np.zeros((1, 1)), _stream_stop).tolist() == [[6, 26]]
        assert predict_batch(model, np.zeros((1, 1))).tolist() == [L0.mask]

    @pytest.mark.parametrize("n_trees", [17, 40, 64, 264, 1000])
    def test_each_threshold_is_the_smallest_settled_lead(self, n_trees):
        # a larger lead gives the leader's share a stochastically larger
        # Beta, so the chance falls with the lead: the smallest lead within
        # the bound is the one whose next smaller lead is not
        for look in looks_of(n_trees):
            settle = forest._settle_votes(look, n_trees)
            assert overturn_chance(settle, look, n_trees) <= STOP_CHANCE < overturn_chance(settle - 1, look, n_trees)
        assert forest._STOP_CHANCE == STOP_CHANCE

    def test_desk_thresholds(self):
        assert [forest._settle_votes(look, 264) for look in looks_of(264)] == [15, 26, 46, 80, 133]

    def test_fifteen_of_sixteen_stops(self):
        model = single_leaf_forest("000000", *["100000"] * 15, *["000000"] * 48)
        assert predict_batch(model, np.zeros((1, 1)), _stop=_stream_stop).tolist() == [L1.mask]
        assert _vote_codes(model, np.zeros((1, 1)), _stream_stop).tolist() == [[1, 15]]

    @pytest.mark.parametrize("n_trees", [1, 5, 15, 16])
    def test_a_forest_of_at_most_16_trees_walks_whole(self, n_trees):
        ts = blob_set(np.random.default_rng(31), spread=1.5)
        model = train_forest(ts, ForestParams(n_trees=n_trees, seed=5))
        X = np.random.default_rng(32).uniform(-2.0, 8.0, size=(500, 3))
        full = _vote_codes(model, X)
        assert np.array_equal(_vote_codes(model, X, _stream_stop), full)
        assert np.array_equal(predict_batch(model, X, _stop=_stream_stop), predict_batch(model, X))

    def test_overturn_chance_of_the_desk_forest_and_its_limit(self):
        # the chance that the other 248 of 264 trees overturn a leader with
        # 15 of the first 16 votes ...
        lead, walked = 15, 16
        assert float(overturn_chance(lead, walked, 264)) == pytest.approx(9.53e-5, rel=1e-3)
        # ... and its large-forest limit: the chance that the leader's share,
        # Beta(16, 2), lies under one half, from the binomial form of the
        # regularized incomplete beta function, P(Binomial(17, 1/2) >= 16)
        limit = Fraction(math.comb(17, 16) + math.comb(17, 17), 2**17)
        assert limit == Fraction(9, 65536) and float(limit) < 1.4e-4
        chances = [overturn_chance(lead, walked, n) for n in range(17, 300)]
        assert not any(chances[:13])  # up to 29 trees, too few left to catch up 15 against 1
        assert all(chance < limit for chance in chances)
        assert float(overturn_chance(lead, walked, 4000)) == pytest.approx(float(limit), rel=0.03)

    @staticmethod
    def settled_forests(rng):
        """Two forests over 3 features on which the stream's stop changes
        many labels. In the first (40 trees), the first 16 stumps vote S1
        below their cuts on f0, 16 of the rest vote healthy below theirs and
        8 are random. In the second (128 trees), the first 64 stumps vote
        S1 below random cuts on f0, so a row's S1 votes grow with the trees
        walked, and the other 64 trees are healthy leaves: rows settle on S1
        at 16, 32 or 64 trees, and the whole forest votes healthy."""
        first = [[f"I 0 {float(c)!r}", "L 100000", "L 000000"] for c in np.linspace(-1.0, 1.0, 16)]
        first += [[f"I 0 {float(c)!r}", "L 000000", "L 100000"] for c in rng.uniform(-1.0, 1.0, 16)]
        first += [random_tree_lines(rng) for _ in range(8)]
        second = [[f"I 0 {float(c)!r}", "L 100000", "L 000000"] for c in rng.uniform(-1.0, 1.0, 64)]
        second += [["L 000000"]] * 64
        return [forest_of(*trees, n_features=3) for trees in (first, second)]

    @pytest.fixture(scope="class")
    def stop_walked(self):
        rng = np.random.default_rng(33)
        cases = []
        for model in self.settled_forests(rng):
            X = rng.uniform(-1.2, 1.2, size=(3000, 3))
            codes = stream_stop_reference(tree_codes(model, X), len(model.label_universe))
            labels = np.array([lab.mask for lab in model.label_universe], dtype=np.uint8)[codes]
            assert np.array_equal(predict_batch(model, X, _stop=_stream_stop), labels)
            assert np.count_nonzero(labels != predict_batch(model, X)) > 100
            cases.append((model, X, labels))
        # in the second forest, each look settles some rows that walk no further
        walked = _vote_codes(cases[1][0], cases[1][1], _stream_stop).sum(axis=1)
        assert all(np.count_nonzero(walked == look) > 50 for look in (16, 32, 64))
        return cases

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 7, 64, 4096]), st.sampled_from([1, 2, 3]), st.data())
    def test_labels_do_not_depend_on_spans_or_threads(self, stop_walked, span_rows, cores, data):
        for model, X, labels in stop_walked:
            n = data.draw(st.integers(0, min(len(X), 40 * span_rows + 1)), label="rows")
            lo = data.draw(st.integers(0, len(X) - n), label="first row")
            with mock.patch.object(forest, "_SPAN_ROWS", span_rows), mock.patch.object(forest, "_cores", lambda: cores):
                got = predict_batch(model, X[lo : lo + n], _stop=_stream_stop)
            assert got.tolist() == labels[lo : lo + n].tolist()

    @pytest.mark.parametrize("span_rows", [100, 4096])
    def test_no_block_holds_more_pairs_than_the_first(self, desk_experiment, monkeypatch, span_rows):
        model = desk_experiment.model
        sim = desk_experiment.config.sim_config(seed=60)
        X = simulate(sim, ((0.05, FaultLabel.from_switches([1, 3])),), 0.1).currents()[::2]
        blocks = []
        walk = forest._walk_block

        def spied_walk(X_flat, n_features, table, rows, start):
            blocks.append((start.shape[0], start.size, X_flat.size // n_features))
            return walk(X_flat, n_features, table, rows, start)

        monkeypatch.setattr(forest, "_walk_block", spied_walk)
        monkeypatch.setattr(forest, "_SPAN_ROWS", span_rows)
        predict_batch(model, X, _stop=_stream_stop)
        assert all(pairs <= forest._TREE_BLOCK * span for _, pairs, span in blocks)
        # the rows left after the stop walk longer blocks, and fewer of them
        assert max(trees for trees, _, _ in blocks) > forest._TREE_BLOCK
        assert len(blocks) < -(-len(X) // span_rows) * -(-model.n_trees // forest._TREE_BLOCK)


def table_preorder(table, root):
    """Entries of one tree of a walk table in preorder, taking an
    internal entry's children at first (left) and first + 1 (right)."""
    order, stack = [], [root]
    while stack:
        k = stack.pop()
        order.append(k)
        if table.leaf_code[k] < 0:
            stack += [table.first[k] + 1, table.first[k]]
    return order


# two deep one-feature trees, one leaning each way
DEEP_TREES = (
    ["I 0 0.5", "I 0 0.25", "L 000000", "I 0 0.375", "L 100000", "L 000000",
     "I 0 0.75", "L 100000", "L 000000"],
    ["I 0 0.1", "L 000000", "I 0 0.2", "L 100000", "I 0 0.3", "L 000000", "L 100000"],
)


class TestWalkTable:
    """The sibling-adjacent node layout that inference walks."""

    @pytest.fixture(scope="class")
    def model(self):
        return train_forest(tie_set(np.random.default_rng(24)), ForestParams(n_trees=5, seed=8))

    def test_children_sit_side_by_side(self, model):
        table, nodes = model._walk_table, model.nodes
        ends = [*model.roots[1:].tolist(), nodes.feature.size]
        for root, end in zip(model.roots.tolist(), ends):
            order = table_preorder(table, root)
            # the tree keeps its own entries, each used once ...
            assert sorted(order) == list(range(root, end))
            # ... and read in preorder they are the tree's nodes
            internal = nodes.feature[root:end] >= 0
            assert table.leaf_code[order].tolist() == nodes.leaf_code[root:end].tolist()
            assert table.feature[order][internal].tolist() == nodes.feature[root:end][internal].tolist()
            assert table.threshold[order][internal].tolist() == nodes.threshold[root:end][internal].tolist()

    def test_leaves_point_at_themselves_with_infinite_thresholds(self, model):
        table = model._walk_table
        leaf = table.leaf_code >= 0
        entry = np.arange(leaf.size)
        assert leaf.sum() == (model.nodes.feature < 0).sum()
        assert np.array_equal(table.first[leaf], entry[leaf])
        assert np.all(table.threshold[leaf] == np.inf) and np.all(table.feature[leaf] == 0)
        assert np.all(np.isfinite(table.threshold[~leaf])) and np.all(table.first[~leaf] > entry[~leaf])
        assert table.feature.dtype == table.leaf_code.dtype == np.int8

    def test_row_equal_to_a_threshold_goes_left(self):
        model = forest_of(["I 0 0.5", "L 000000", "L 100000"])
        rows = np.array([[0.5], [np.nextafter(0.5, 1.0)], [np.nextafter(0.5, 0.0)]])
        right = reference_children(model.nodes.feature.tolist())
        expected = [model.nodes.leaf_code[leaf_of(model.nodes, right, row)] for row in rows]
        assert expected == [0, 1, 0]
        assert np.argmax(_vote_codes(model, rows), axis=1).tolist() == expected
        assert predict_batch(model, rows).tolist() == [L0.mask, L1.mask, L0.mask]

    @pytest.mark.parametrize(
        "trees",
        [
            [["L 000000"], ["L 100000"], ["L 100000"]],
            # 20 trees, so a second block: one-leaf trees between deep ones
            [["L 100000"], DEEP_TREES[0], ["L 000000"], DEEP_TREES[1], ["L 100000"]] * 4,
        ],
    )
    def test_one_leaf_trees_match_the_reference(self, trees):
        model = forest_of(*trees)
        X = np.concatenate([
            np.random.default_rng(25).uniform(-0.5, 1.5, size=(200, 1)),
            np.array([[0.1], [0.2], [0.25], [0.3], [0.375], [0.5], [0.75]]),
        ])
        counts = np.zeros((len(X), 2), dtype=int)
        right = reference_children(model.nodes.feature.tolist())
        for root in model.roots:
            for i, row in enumerate(X):
                counts[i, model.nodes.leaf_code[leaf_of(model.nodes, right, row, root)]] += 1
        assert np.array_equal(_vote_codes(model, X), counts)
        assert predict_batch(model, X).tolist() == [model.label_universe[k].mask for k in np.argmax(counts, axis=1)]

    def test_wide_models_keep_wide_codes(self):
        # feature 150 does not fit an int8 feature column
        model = forest_of(["I 150 0.5", "L 000000", "L 100000"], n_features=200)
        X = np.zeros((2, 200))
        X[1, 150] = 1.0
        assert predict_batch(model, X).tolist() == [L0.mask, L1.mask]
        assert model._walk_table.feature.dtype == np.intp

    def test_table_is_built_once_per_model(self, model, monkeypatch):
        # the walk table and the top table alike
        builds = Counter()

        def counted(name):
            build = getattr(forest, name)

            def counted_build(*args):
                builds[name] += 1
                return build(*args)

            return counted_build

        for name in ("_build_walk_table", "_build_top_table"):
            monkeypatch.setattr(forest, name, counted(name))
        fresh = load_bytes(model_bytes(model))
        X = np.asarray(tie_set(np.random.default_rng(26)).features)
        labels = predict_batch(fresh, X)
        table, top = fresh._walk_table, fresh._top_table
        assert np.array_equal(predict_batch(fresh, X), labels)
        assert np.array_equal(_vote_codes(fresh, X), _vote_codes(fresh, X))
        assert fresh._walk_table is table and fresh._top_table is top
        assert builds == {"_build_walk_table": 1, "_build_top_table": 1}

    @pytest.mark.parametrize("name", ["desk", "one tree", "wide"])
    def test_blocks_match_the_whole_forest_reference(self, name, request):
        # the desk forest's 264 trees end in a part block; a feature past
        # 127 keeps intp codes
        rng = np.random.default_rng(27)

        def wide_tree_lines(depth=0):
            if depth == 4 or (depth and rng.random() < 0.2):
                return [f"L {'100000' if rng.random() < 0.5 else '000000'}"]
            node = f"I {rng.integers(0, 200)} {rng.uniform(-1.0, 1.0)!r}"
            return [node, *wide_tree_lines(depth + 1), *wide_tree_lines(depth + 1)]

        if name == "desk":
            model = request.getfixturevalue("desk_experiment").model
        elif name == "one tree":
            model = forest_of(DEEP_TREES[0])
        else:
            model = forest_of(*(wide_tree_lines() for _ in range(17)), n_features=200)
        got, expected = model._walk_table, reference_walk_table(model.nodes, model.roots)
        assert [(col.dtype, col.tobytes()) for col in got] == [(col.dtype, col.tobytes()) for col in expected]
        assert got.feature.dtype == (np.intp if name == "wide" else np.int8)


def random_tree_lines(rng):
    """Node lines of a random tree over 3 features, 1 to 9 levels deep."""
    features = random_preorder_tree(rng)
    return [f"I {f} {rng.uniform(-1.0, 1.0)!r}" if f >= 0 else f"L {'100000' if rng.random() < 0.5 else '000000'}"
            for f in features]


def assert_counts_match_reference(model, X):
    """Full and early-stop counts equal those of walking each tree alone."""
    codes = tree_codes(model, X)
    n_classes = len(model.label_universe)
    full = np.stack([np.bincount(c, minlength=n_classes) for c in codes])
    assert np.array_equal(_vote_codes(model, X), full)
    assert np.array_equal(_vote_codes(model, X, _exact_stop), early_stop_reference(codes, n_classes))


class TestTopTable:
    """The lookup that takes each (row, tree) pair past the top levels."""

    @pytest.mark.parametrize("share", [0.5, 0.7, 1.0, 1.3, 1.5])
    def test_desk_counts_match_reference_at_every_amplitude(self, desk_experiment, share):
        config = desk_experiment.config
        sim = config.sim_config(seed=50)
        sim = replace(sim, amplitude=sim.amplitude * share)
        X = simulate(sim, ((0.05, FaultLabel.from_switches([1, 3])),), 0.1).currents()[::4]
        assert_counts_match_reference(desk_experiment.model, X)

    def test_desk_rows_on_a_top_threshold_go_left(self, desk_experiment):
        model = desk_experiment.model
        top = model._top_table
        assert top.features == (0, 1, 2)
        rng = np.random.default_rng(51)
        rows = []
        for f, cut in zip(top.features, top.cuts):
            values = rng.choice(cut, 60, replace=False)
            for value in (values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)):
                row = rng.choice(np.concatenate(top.cuts), (values.size, 3))
                row[:, f] = value
                rows.append(row)
        assert_counts_match_reference(model, np.concatenate(rows))

    @pytest.mark.parametrize(
        "trees",
        [
            [DEEP_TREES[0], DEEP_TREES[1], ["I 2 0.0", "L 100000", "L 000000"]] * 6,
            # 40 trees, some deeper than the top levels, some shallower, and leaves
            [["L 100000"], *DEEP_TREES, ["L 000000"]] * 5
            + [random_tree_lines(np.random.default_rng(52 + k)) for k in range(20)],
        ],
        ids=["shallow", "mixed"],
    )
    def test_shallow_and_one_leaf_trees_match_reference(self, trees):
        model = forest_of(*trees, n_features=3)
        rng = np.random.default_rng(53)
        X = np.concatenate([
            rng.uniform(-1.0, 1.0, size=(300, 3)),
            # every threshold of DEEP_TREES, on every feature
            np.repeat([[0.1], [0.2], [0.25], [0.3], [0.375], [0.5], [0.75], [0.0]], 3, axis=1),
        ])
        assert_counts_match_reference(model, X)

    def test_wide_model_keeps_the_table_small(self):
        # two complete trees 6 levels deep whose top 31 tests each read a
        # different one of 40 features: a table over all 5 top levels would
        # need 2**31 cells per tree, so the bound stops it at 3 levels
        rng = np.random.default_rng(54)

        def tree_lines(top, depth=0):
            if depth == 6:
                return [f"L {'100000' if rng.random() < 0.5 else '000000'}"]
            f = next(top) if depth < 5 else rng.integers(0, 40)
            return [f"I {f} {rng.uniform(-1.0, 1.0)!r}", *tree_lines(top, depth + 1), *tree_lines(top, depth + 1)]

        trees = [tree_lines(iter(rng.permutation(40)[:31])) for _ in range(2)]
        model = forest_of(*trees, n_features=40)
        X = rng.uniform(-1.0, 1.0, size=(500, 40))
        assert_counts_match_reference(model, X)
        top = model._top_table
        assert top.entry.size == 2 * 2**7  # 7 tests on 7 features in each tree's top 3 levels
        entries = top.entry.size + sum(rank.size for rank in top.rank)
        assert entries <= forest._TOP_ENTRIES * model.nodes.feature.size


def small_model():
    """A 3-tree, depth-2 forest on the blobs: every kind of node, in few
    bytes."""
    ts = blob_set(np.random.default_rng(24), n_per_class=10)
    return train_forest(ts, ForestParams(n_trees=3, max_depth=2, seed=1))


SMALL_MODEL = model_bytes(small_model())
# its 15 nodes, in 3 trees of 5, are its last 174 bytes from here on: the
# feature, threshold and leaf_code columns, then the tree sizes
SMALL_BODY = len(SMALL_MODEL) - 174


def with_header_line(data: bytes, k: int, line: str) -> bytes:
    """The model file bytes with header line k (the format line is 0)
    replaced by line, and the body kept."""
    *lines, body = data.split(b"\n", 1 + len(forest._HEADER))
    lines[k] = line.encode("ascii")
    return b"\n".join([*lines, body])


def saved_with(model, **columns) -> bytes:
    """model_bytes of the model with the given node columns replaced."""
    return model_bytes(replace(model, nodes=model.nodes._replace(**columns)))


STUMP = ["I 0 0.5", "L 000000", "L 100000"]


class TestPersistence:
    def test_round_trip_preserves_predictions_and_bytes(self, tmp_path):
        ts = blob_set(np.random.default_rng(14))
        model = train_forest(ts, ForestParams(n_trees=6, seed=4))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert [(col.dtype, col.tobytes()) for col in (*loaded.nodes, loaded.roots)] == [
            (col.dtype, col.tobytes()) for col in (*model.nodes, model.roots)
        ]
        assert loaded.healthy_rms == model.healthy_rms
        rows = np.asarray(ts.features)
        assert list(predict_batch(loaded, rows)) == list(predict_batch(model, rows))
        save_model(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_file_is_the_header_then_the_columns(self):
        model = forest_of(STUMP, ["L 100000"])
        header = [
            "trifault-forest 4", "n_trees 2", "feature_names f0", "labels 000000 100000", "seed 0",
            "m_try none", "max_depth none", "min_samples_leaf 1", "healthy_rms 1", "nodes 4",
        ]
        body = (
            np.array([0, -1, -1, -1], "<i1").tobytes()
            + np.array([0.5, 0.0, 0.0, 0.0], "<f8").tobytes()
            + np.array([-1, 0, 1, 1], "<i1").tobytes()
            + np.array([3, 1], "<i8").tobytes()
        )
        assert model_bytes(model) == "".join(line + "\n" for line in header).encode("ascii") + body

    def test_wide_models_write_eight_byte_features(self):
        model = forest_of(["I 150 0.5", "L 000000", "L 100000"], n_features=200)
        data = model_bytes(model)
        body = data[data.index(b"\nnodes 3\n") + len(b"\nnodes 3\n") :]
        assert body[:24] == np.array([150, -1, -1], "<i8").tobytes()
        loaded = load_bytes(data)
        assert loaded.nodes.feature.dtype == np.intp and loaded.nodes.feature.tolist() == [150, -1, -1]

    def test_rejects_unsupported_version(self):
        with pytest.raises(ModelFormatError, match="unsupported format version '99'$"):
            load_bytes(b"trifault-forest 99\n")
        with pytest.raises(ModelFormatError, match="^not a trifault-forest file: ''$"):
            load_bytes(b"")

    @pytest.mark.parametrize("version", ["1", "2", "3"])
    def test_refuses_earlier_versions_and_says_to_re_train(self, version):
        # 1 and 2 held thresholds on max-abs scaled rows, 3 held its trees as text lines
        data = with_header_line(SMALL_MODEL, 0, f"trifault-forest {version}")
        with pytest.raises(ModelFormatError, match=f"version '{version}': .*; re-train the model$"):
            load_bytes(data)

    def test_healthy_rms_pools_the_raw_healthy_rows(self):
        X = np.array([[3.0, -4.0], [100.0, 0.0], [0.0, 0.0]])
        ts = TrainingSet(X, masks(L0, L1, L0), ("f", "g"))
        model = train_forest(ts, ForestParams(n_trees=1, seed=0))
        assert model.healthy_rms == math.sqrt(25.0 / 4.0)

    @pytest.mark.parametrize("first", [L0, L2], ids=["no-current", "no-healthy-row"])
    def test_healthy_rms_is_none_without_healthy_current(self, first, tmp_path):
        # only the first row may be healthy, and it carries no current
        ts = TrainingSet(np.array([[0.0], [2.0]]), masks(first, L1), ("f",))
        model = train_forest(ts, ForestParams(n_trees=1, seed=0))
        assert model.healthy_rms is None
        save_model(model, tmp_path / "model.txt")
        assert b"\nhealthy_rms none\n" in (tmp_path / "model.txt").read_bytes()
        assert load_model(tmp_path / "model.txt").healthy_rms is None

    @pytest.mark.parametrize("cut", [1, 8, 174])
    def test_rejects_truncated_file(self, cut):
        # the last cut leaves the header and no body
        message = f"^the body holds {174 - cut} bytes, not the 174 of 15 nodes in 3 trees$"
        with pytest.raises(ModelFormatError, match=message):
            load_bytes(SMALL_MODEL[:-cut])

    @pytest.mark.parametrize("after", [b"\x00", b"end\n", "doubled"])
    def test_rejects_bytes_after_the_columns(self, after):
        # a file saved twice into one, or with bytes appended, is not read as its first model
        after = SMALL_MODEL if after == "doubled" else after
        with pytest.raises(ModelFormatError, match="^the body holds"):
            load_bytes(SMALL_MODEL + after)

    @pytest.mark.parametrize(
        "sizes", [[4, 0], [3, 2], [5, -1], [2**62, 2**62]], ids=["zero", "sum", "negative", "huge"]
    )
    def test_rejects_tree_sizes_that_do_not_split_the_nodes(self, sizes):
        # the last 16 bytes hold the two tree sizes
        data = model_bytes(forest_of(STUMP, ["L 100000"]))[:-16] + np.array(sizes, "<i8").tobytes()
        with pytest.raises(ModelFormatError, match="^the tree sizes are not 2 counts of at least 1 that sum to 4$"):
            load_bytes(data)

    @pytest.mark.parametrize("feature", [-2, 1, 127])
    def test_rejects_feature_index_outside_the_features(self, feature):
        data = model_bytes(forest_of(["L 100000"], [f"I {feature} 0.5", "L 000000", "L 100000"]))
        with pytest.raises(ModelFormatError, match=f"^node 0 of tree 1: feature index {feature} outside -1..0$"):
            load_bytes(data)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_threshold(self, threshold):
        data = model_bytes(forest_of(["I 0 0.5", f"I 0 {threshold}", "L 000000", "L 100000", "L 100000"]))
        with pytest.raises(ModelFormatError, match=f"^node 1 of tree 0: non-finite threshold {threshold}$"):
            load_bytes(data)

    def test_a_leaf_may_hold_any_threshold(self):
        # only internal nodes are walked by their thresholds; the bytes round-trip
        model = forest_of(STUMP)
        data = saved_with(model, threshold=np.array([0.5, np.nan, -np.inf]))
        assert model_bytes(load_bytes(data)) == data

    @pytest.mark.parametrize("code", [2, -1, -2, 127])
    def test_rejects_leaf_code_outside_the_labels(self, code):
        model = forest_of(STUMP)
        data = saved_with(model, leaf_code=np.array([-1, 0, code], dtype=np.int8))
        with pytest.raises(ModelFormatError, match=f"^node 2 of tree 0: leaf code {code} not in the labels$"):
            load_bytes(data)

    def test_rejects_internal_node_with_a_leaf_code(self):
        model = forest_of(STUMP)
        data = saved_with(model, leaf_code=np.array([1, 0, 1], dtype=np.int8))
        with pytest.raises(ModelFormatError, match="^node 0 of tree 0: internal node with leaf code 1$"):
            load_bytes(data)

    @pytest.mark.parametrize(
        "trees, bad",
        [
            # cut short: tree 0 still owes its right subtree at its last node
            ([["I 0 0.5", "L 000000"], ["L 100000"]], 0),
            # whole before its last node: a node follows a complete tree
            ([["L 000000", "L 100000"], ["L 000000"]], 0),
            ([["L 000000"], ["L 000000", "L 100000"]], 1),
            ([STUMP, ["I 0 0.5", "L 000000", "L 100000", "L 100000"]], 1),
            ([["I 0 0.5", "I 0 0.5", "L 000000", "L 100000"]], 0),
        ],
    )
    def test_rejects_tree_that_is_not_whole_in_preorder(self, trees, bad):
        with pytest.raises(ModelFormatError, match=f"^tree {bad} is not one whole tree in preorder$"):
            load_bytes(model_bytes(forest_of(*trees)))

    @pytest.mark.parametrize("value", ["nan", "-inf", "-2", "1 2"])
    def test_rejects_healthy_rms_that_is_not_one_finite_positive_number(self, value):
        with pytest.raises(ModelFormatError, match="healthy_rms"):
            load_bytes(with_header_line(SMALL_MODEL, 8, f"healthy_rms {value}"))

    @pytest.mark.parametrize(
        "k, line",
        [
            (1, ""),
            (2, ""),
            (1, "n_trees x"),
            (1, "n_trees 0"),
            (2, "n_features 1"),
            (3, "scaler 1"),
            (3, "labels 00000x"),
            (3, "labels 100000 000000"),
            (3, "labels 000000 100000 100000"),
            (4, "seed x"),
            (4, "seed -1"),
            (5, "m_try x"),
            (5, "m_try 0"),
            (6, "max_depth 2.5"),
            (6, "max_depth 0"),
            (7, "min_samples_leaf x"),
            (7, "min_samples_leaf 0"),
            (8, "healthy_rms inf"),
            (8, "healthy_rms 0"),
            (9, ""),
            (9, "nodes x"),
            (9, "nodes 0"),
            (9, "tree 0"),
        ],
    )
    def test_rejects_bad_header_line(self, k, line):
        with pytest.raises(ModelFormatError, match=re.escape(repr(line))):
            load_bytes(with_header_line(SMALL_MODEL, k, line))

    @pytest.mark.parametrize(
        "k, line",
        [(1, "n_trees +3"), (1, "n_trees 3 "), (2, "feature_names i_a\ti_b i_c"), (4, "seed 01"),
         (5, "m_try  none"), (6, "max_depth 1_0"), (8, "healthy_rms 1.0"), (9, "nodes 015")],
    )
    def test_rejects_header_line_that_save_model_writes_otherwise(self, k, line):
        # each is read as a valid value, which save_model writes otherwise, so
        # a file that loads is always the bytes it re-saves to
        data = with_header_line(SMALL_MODEL, k, line)
        with pytest.raises(ModelFormatError, match=re.escape(repr(line))):
            load_bytes(data)

    def test_rejects_forest_without_features(self):
        with pytest.raises(ModelFormatError, match="'feature_names'"):
            load_bytes(with_header_line(SMALL_MODEL, 2, "feature_names"))

    @pytest.mark.parametrize("key", ["n_trees", "labels", "nodes"])
    def test_rejects_header_cut_short(self, key):
        # cut three bytes into the key's line, which is then no line
        cut = SMALL_MODEL.index(f"\n{key} ".encode("ascii")) + 4
        with pytest.raises(ModelFormatError, match=f"^missing header line '{key}'$"):
            load_bytes(SMALL_MODEL[:cut])

    def test_non_ascii_byte_names_its_header_line(self):
        # the body's bytes are binary; a header byte must be ASCII
        lines = SMALL_MODEL.split(b"\n", 4)
        data = b"\n".join([*lines[:3], lines[3].replace(b"100000", b"1000\xe90"), lines[4]])
        with pytest.raises(ModelFormatError, match="^header line 4: byte 0xe9 is not ASCII$"):
            load_bytes(data)

    def test_desk_model_measures_the_trained_amplitude(self, desk_experiment):
        config = desk_experiment.config
        assert desk_experiment.model.healthy_rms * math.sqrt(2.0) == pytest.approx(config.amplitude, rel=0.005)

    def test_desk_model_bytes_are_pinned(self, desk_experiment, tmp_path):
        # The digests were recorded when the classifier grid, and with it
        # the pool, went from 10 kHz to 2.5 kHz, each class sized by the
        # samples of a period that express it, and the model digest again
        # for format version 4. The pool comes from NumPy's sin, whose last
        # bit may differ with the NumPy build and the CPU, so the model
        # digest is compared on the recorded pool only.
        X, _ = training_rows(generate_training_pool(desk_experiment.config))
        if hashlib.sha256(X.tobytes()).hexdigest() != DESK_POOL_SHA256:
            pytest.skip("this platform simulates a different desk pool")
        save_model(desk_experiment.model, tmp_path / "desk.txt")
        digest = hashlib.sha256((tmp_path / "desk.txt").read_bytes()).hexdigest()
        assert digest == DESK_MODEL_SHA256

    def test_loading_holds_the_file_and_its_columns(self, desk_experiment, tmp_path):
        # The 3.6 MB desk file of format version 3 peaked at 7.9 MB traced
        # while it was parsed 256 KB at a time. Of format version 4 (2.4 MB)
        # it peaks at 4.8 MB: the file's bytes, read whole, and the columns
        # copied out of them; the checks after that hold the columns and one
        # count per node.
        path = tmp_path / "desk.txt"
        save_model(desk_experiment.model, path)
        columns = sum(col.nbytes for col in (*desk_experiment.model.nodes, desk_experiment.model.roots))
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * (path.stat().st_size + columns)

    def test_first_prediction_holds_the_tables_it_builds(self, desk_experiment, tmp_path):
        # The first call builds the walk table (5.5 MB) and the top table
        # (3.8 MB) and keeps them. It peaked at 21.5 MB traced while the
        # walk table was built over the whole forest at once, and peaks at
        # 11.9-13.0 MB building it 16 trees at a time.
        path = tmp_path / "desk.txt"
        save_model(desk_experiment.model, path)
        model = load_model(path)
        X = np.random.default_rng(28).normal(size=(200, 3))
        tracemalloc.start()
        try:
            predict_batch(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6

    @pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
    def test_trainer_reproduces_golden_model(self, name):
        make_set, params = GOLDEN_MODELS[name]
        ts = make_set()
        model = train_forest(ts, params)
        golden = (DATA / name).read_bytes()
        assert model_bytes(model) == golden
        loaded = load_model(DATA / name)
        assert model_bytes(loaded) == golden
        rows = np.concatenate([ts.features, np.random.default_rng(21).uniform(-2, 8, (200, 3))])
        assert np.array_equal(predict_batch(loaded, rows), predict_batch(model, rows))


def flip_byte(data: bytes, at: int, mask: int) -> bytes:
    """The bytes with the byte at `at` XORed with mask."""
    return data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]


DAMAGED_SMALL_MODELS = st.one_of(
    st.integers(0, len(SMALL_MODEL) - 1).map(lambda n: SMALL_MODEL[:n]),
    st.builds(flip_byte, st.just(SMALL_MODEL), st.integers(0, len(SMALL_MODEL) - 1), st.integers(1, 255)),
    st.binary(min_size=1, max_size=64).map(lambda tail: SMALL_MODEL + tail),
)


class TestDamagedFiles:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(DAMAGED_SMALL_MODELS)
    # a flipped feature byte of the root, internal, and of its left child, a
    # leaf; a flipped top byte (sign and exponent) of each one's threshold;
    # a flipped tree size and a flipped digit of healthy_rms
    @example(flip_byte(SMALL_MODEL, SMALL_BODY, 0x01))
    @example(flip_byte(SMALL_MODEL, SMALL_BODY + 1, 0xFF))
    @example(flip_byte(SMALL_MODEL, SMALL_BODY + 15 + 7, 0x40))
    @example(flip_byte(SMALL_MODEL, SMALL_BODY + 15 + 8 + 7, 0x7F))
    @example(flip_byte(SMALL_MODEL, len(SMALL_MODEL) - 24, 0x01))
    @example(flip_byte(SMALL_MODEL, SMALL_MODEL.index(b"healthy_rms ") + 14, 0x01))
    def test_damaged_file_is_refused_or_re_saves_to_its_bytes(self, data):
        # no IndexError, UnicodeDecodeError or other ValueError escapes
        try:
            model = load_bytes(data)
        except ModelFormatError:
            return
        assert model_bytes(model) == data


class TestCrossValidation:
    def test_stratified_folds_partition_all_rows(self):
        labels = np.repeat(masks(L0, L1, L2), [10, 7, 8])
        folds = stratified_folds(labels, 5, np.random.default_rng(0))
        seen = np.concatenate(folds)
        assert sorted(seen) == list(range(25))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 3

    def test_fold_class_balance(self):
        labels = np.repeat(masks(L0, L1), 20)
        folds = stratified_folds(labels, 4, np.random.default_rng(1))
        for fold in folds:
            n0 = sum(1 for i in fold if labels[i] == L0.mask)
            assert n0 == 5

    def test_cross_validate_result_shape(self):
        ts = blob_set(np.random.default_rng(17), n_per_class=30)
        accuracies = cross_validate(ts, ForestParams(n_trees=6, seed=0), k_folds=5)
        assert len(accuracies) == 5
        assert np.mean(accuracies) > 0.9

    def test_rejects_bad_fold_count(self):
        ts = blob_set(np.random.default_rng(18), n_per_class=2)
        with pytest.raises(ValueError):
            cross_validate(ts, ForestParams(n_trees=2), k_folds=1)

    def test_cross_validate_deterministic(self):
        ts = blob_set(np.random.default_rng(19))
        a = cross_validate(ts, ForestParams(n_trees=4, seed=2), k_folds=3)
        b = cross_validate(ts, ForestParams(n_trees=4, seed=2), k_folds=3)
        assert a == b
