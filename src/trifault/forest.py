"""From-scratch random forest over fault-labeled feature rows.

Bagged CART trees with Gini splits. Rows are normalized per feature by
the training maximum absolute value, each tree trains on a bootstrap
resample, and each split considers m_try features drawn without
replacement. Determinism rules: every tree's RNG is derived from
(seed, tree index) only, so parallel and sequential training coincide;
split ties go to the lower feature index then the lower threshold;
leaf pluralities and forest votes break ties in sorted-label order,
which puts the all-zero healthy label first.

A tree is a node table: arrays ``feature``, ``threshold``, ``left``,
``right`` and ``leaf_code`` with one entry per node in preorder. The
child links are derived from the preorder, not built: growth, the
stacked forest (every tree end to end, a root offset per tree) and the
loader all take them from ``feature`` alone. The v1 model file is one
text line per table entry, and loading parses it in bulk.

Training grows the trees in blocks, in lockstep: step s expands the
s-th preorder node of every tree in the block not yet finished. Each
tree keeps its own stack and its own RNG, and draws its features once
per split attempt in its own preorder, so its draws are those of a tree
grown alone. Rows are sorted once per tree and feature (the presort of
SLIQ, Mehta et al. 1996): a node owns one range of positions in every
feature's row list, and a split reorders each range stably into its
left rows and then its right rows, so no node sorts. The nodes of a
step are scored together in a few array passes, in batches capped at a
fixed row count. The class counts left of each cut are exact integers,
counted only at cuts, and the gains come from the same float operations
on the same (cuts x classes) rows as when each node was scored alone:
division, square, a row sum over every class, the same gain expression,
and the first maximum per node. So the model bytes do not depend on the
block size, and match those of growing one node at a time.

Inference walks the trees in blocks of 16. Within a block, every
(row, tree) pair steps down together, ordered tree by tree so that one
step reads only that block's nodes; a pair leaves the walk at its leaf,
and the block's votes are added with one bincount. Rows go through in
chunks that keep at most 2**17 pairs alive. When only labels are
wanted, a row stops after any block where its leading vote beats the
runner-up by more than the number of trees not yet walked: even if
every remaining tree voted for one other label, that label would end
below the leader, so the argmax cannot change. A margin equal to the
trees left keeps the row walking, because a tie would go to the label
that sorts first, which may be the runner-up.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .simulate import FaultLabel

MODEL_FORMAT_NAME = "trifault-forest"
MODEL_FORMAT_VERSION = 1
# gains below this are treated as float jitter, not a real improvement
_MIN_GAIN = 1e-12
# inference walks the trees this many at a time ...
_TREE_BLOCK = 16
# ... over row chunks holding at most this many (row, tree) pairs
_MAX_PAIRS = 1 << 17
# training grows as many trees at a time as keep their presorted row lists
# within this many entries ...
_GROW_ENTRIES = 1 << 22
# ... and scores split nodes in batches of at most this many presorted rows
_SPLIT_ROWS = 8192


class ModelFormatError(ValueError):
    """Raised for malformed or unsupported model files."""


@dataclass(frozen=True)
class ForestParams:
    """Training controls.

    m_try defaults to floor(sqrt(n_features)) when None. max_depth None
    means unlimited; a node at the depth limit becomes a leaf.
    """

    n_trees: int = 264
    m_try: int | None = None
    max_depth: int | None = None
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.m_try is not None and self.m_try < 1:
            raise ValueError("m_try must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def resolved_m_try(self, n_features: int) -> int:
        m = self.m_try if self.m_try is not None else max(1, int(math.isqrt(n_features)))
        if m > n_features:
            raise ValueError(f"m_try={m} exceeds feature count {n_features}")
        return m


class NodeTable(NamedTuple):
    """Tree nodes in preorder, one array entry per node.

    An internal node has feature >= 0 and sends a normalized row left
    when its value is <= threshold; its leaf_code is -1. A leaf has
    feature -1, votes for label code leaf_code, and its left and right
    point at itself. Child indices count from the start of the table.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_code: np.ndarray


def _preorder_children(feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Child links of whole trees laid out in preorder, one after another.

    Count the subtrees still owed before each node: +1 per internal node,
    -1 per leaf. Inside a node's left subtree the count stays above its
    value at the node and returns to it right after, so the right child
    is the next node with the same count; the left child is the next
    node, and a leaf points at itself. Each tree lowers the count by one.
    """
    internal = feature >= 0
    step = np.where(internal, 1, -1)
    order = np.argsort(np.cumsum(step) - step, kind="stable")
    node = np.arange(feature.size)
    right = node.copy()
    before = order[:-1]
    opens = internal[before]
    right[before[opens]] = order[1:][opens]
    return np.where(internal, node + 1, node), right


@dataclass(frozen=True)
class TrainingSet:
    """Feature rows plus their fault labels."""

    features: np.ndarray
    labels: tuple[FaultLabel, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a non-empty (rows, n_features) array")
        if len(self.labels) != X.shape[0]:
            raise ValueError("labels must match the number of feature rows")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names must match the feature width")
        object.__setattr__(self, "features", X)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class RandomForestModel:
    """Every tree's node table stacked into one. Tree t occupies the
    entries from roots[t] up to the next root, with absolute child
    indices."""

    nodes: NodeTable
    roots: np.ndarray
    feature_names: tuple[str, ...]
    scaler: np.ndarray
    label_universe: tuple[FaultLabel, ...]
    params: ForestParams

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def normalize_fit(features) -> np.ndarray:
    """Per-feature max-abs scaler; an all-zero column scales by 1."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be 2-d")
    scaler = np.max(np.abs(X), axis=0)
    scaler[scaler == 0.0] = 1.0
    return scaler


def normalize_apply(scaler, features) -> np.ndarray:
    scaler = np.asarray(scaler, dtype=float)
    if np.any(scaler <= 0):
        raise ValueError("scaler entries must be > 0")
    return np.asarray(features, dtype=float) / scaler


def bootstrap_sample(n_rows: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n row indices drawn uniformly with replacement from range(n_rows)."""
    if n_rows < 1:
        raise ValueError("cannot bootstrap from an empty row set")
    if n < 1:
        raise ValueError("bootstrap size must be >= 1")
    return rng.integers(0, n_rows, size=n)


def label_universe_of(labels) -> tuple[FaultLabel, ...]:
    return tuple(sorted(set(labels)))


def _encode_labels(labels, universe) -> np.ndarray:
    code = {lab: k for k, lab in enumerate(universe)}
    return np.fromiter((code[lab] for lab in labels), dtype=np.int64, count=len(labels))


def _ranges(starts, lengths) -> np.ndarray:
    """The index ranges [start, start + length), laid end to end."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1])


def _best_splits(X, codes, order, lo, n_node, counts, feats, min_leaf):
    """(found, feature, threshold) of the best split of each node.

    Node k owns the positions lo[k] .. lo[k] + n_node[k] - 1 of every
    row list order[f]; counts[k] are its class counts and feats[k] its
    ascending feature draw. A run is one node's rows in one drawn
    feature's order. The runs lie end to end, node by node and features
    ascending within a node, so the first maximum of a node's gains is
    its lowest feature's lowest threshold. found marks the nodes whose
    best gain clears _MIN_GAIN.
    """
    n_nodes, m_try = feats.shape
    n_classes = counts.shape[1]
    run_node = np.repeat(np.arange(n_nodes), m_try)
    run_feature = feats.ravel()
    run_len = n_node[run_node]
    run_end = np.cumsum(run_len) - 1
    rows = order.ravel()[_ranges(run_feature * order.shape[1] + lo[run_node], run_len)]
    feature = np.repeat(run_feature, run_len)
    value = X.ravel()[rows * X.shape[1] + feature]
    # a cut falls between two different values of one run
    differs = value[1:] != value[:-1]
    differs[run_end[:-1]] = False
    cut = np.flatnonzero(differs)
    run = np.searchsorted(run_end, cut)
    left_n = cut - (run_end - run_len)[run]
    node_n = run_len[run]
    if min_leaf > 1:
        keep = (left_n >= min_leaf) & (node_n - left_n >= min_leaf)
        cut, run, left_n, node_n = cut[keep], run[keep], left_n[keep], node_n[keep]
    found = np.zeros(n_nodes, dtype=bool)
    best_feature = np.zeros(n_nodes, dtype=np.intp)
    best_threshold = np.zeros(n_nodes)
    if not cut.size:
        return found, best_feature, best_threshold

    # Exact class counts left of each cut. Count the rows after the
    # previous cut, take away the rows of earlier runs at each run's first
    # cut, and add up; the sums are whole numbers, exact in floats.
    gap = np.zeros(value.size, dtype=np.intp)
    gap[cut + 1] = 1
    np.cumsum(gap, out=gap)  # cuts before each row
    left = np.bincount(gap * n_classes + codes[rows], minlength=(cut.size + 1) * n_classes)
    left = left.reshape(-1, n_classes)
    run_cuts = np.searchsorted(run, np.arange(run_len.size + 1))
    cut_runs = np.flatnonzero(run_cuts[:-1] < run_cuts[1:])
    run_counts = counts[run_node]
    earlier = (np.cumsum(run_counts, axis=0) - run_counts)[cut_runs]  # rows before each run
    left[run_cuts[cut_runs]] -= np.diff(earlier, axis=0, prepend=0)
    left = left.astype(np.int32)  # int32 sums run faster than int64 or float ones
    np.cumsum(left, axis=0, out=left)
    left = left[:-1].astype(float)

    # the float operations of the per-node Gini search, one row per cut,
    # done in place
    node = run_node[run]
    p = counts / n_node[:, None]
    parent_gini = 1.0 - np.sum(p * p, axis=1)
    right = counts.astype(float)[node]
    right -= left
    left_n = left_n.astype(float)
    right_n = node_n - left_n
    np.square(np.divide(left, left_n[:, None], out=left), out=left)
    np.square(np.divide(right, right_n[:, None], out=right), out=right)
    gini_left = 1.0 - np.sum(left, axis=1)
    gini_right = 1.0 - np.sum(right, axis=1)
    gains = parent_gini[node] - (left_n * gini_left + right_n * gini_right) / node_n

    node_cuts = np.searchsorted(node, np.arange(n_nodes + 1))
    nodes = np.flatnonzero(node_cuts[:-1] < node_cuts[1:])
    first = node_cuts[nodes]
    best = np.maximum.reduceat(gains, first)
    at_best = np.flatnonzero(gains == np.repeat(best, node_cuts[nodes + 1] - first))
    winner = cut[at_best[np.searchsorted(at_best, first)]]  # first maximum per node
    found[nodes] = best > _MIN_GAIN
    best_feature[nodes] = feature[winner]
    # the midpoint of adjacent floats a < b can round up to b, and then
    # `<= threshold` would send every row left; a is the threshold then
    below, above = value[winner], value[winner + 1]
    mid = (below + above) / 2.0
    best_threshold[nodes] = np.where(mid < above, mid, below)
    return found, best_feature, best_threshold


def _partition(X, codes, n_classes, order, lo, n_node, feature, threshold):
    """Split each node's positions, in every row list, into the rows that
    go left and then those that go right, each in their sorted order.
    Returns how many rows of each node go left, and the (left, right)
    class counts of each node."""
    node = np.repeat(np.arange(lo.size), n_node)
    pos = _ranges(lo, n_node)
    go_feature, go_threshold = feature[node], threshold[node]
    for f in range(order.shape[0]):
        rows = order[f, pos]
        left = X.ravel()[rows * X.shape[1] + go_feature] <= go_threshold
        if f == 0:
            side = 2 * node + ~left
            child = np.bincount(side * n_classes + codes[rows], minlength=2 * lo.size * n_classes)
            n_left = np.add.reduceat(left, np.cumsum(n_node) - n_node, dtype=np.intp)
            n_right = n_node - n_left
            # a node's k-th left row goes to lo + k, its k-th right row to lo + n_left + k
            to_left = _ranges(lo, n_left)
            to_right = _ranges(lo + n_left, n_right)
        order[f, to_left] = rows[left]
        order[f, to_right] = rows[~left]
    return n_left, child.reshape(lo.size, 2, -1)


def _expand(X, codes, order, lo, n_node, depth, counts, rngs, m_try, max_depth, min_leaf):
    """Expand one node of each tree. Returns each node's feature,
    threshold and leaf code, and for a split node how many rows go left
    and the (left, right) class counts."""
    n_features = X.shape[1]
    feature = np.full(lo.size, -1, dtype=np.intp)
    threshold = np.zeros(lo.size)
    leaf_code = np.argmax(counts, axis=1)  # first max = sorted-label tie-break
    n_left = np.zeros(lo.size, dtype=np.intp)
    child = np.zeros((lo.size, 2, counts.shape[1]), dtype=counts.dtype)
    tried = (counts.max(axis=1) < n_node) & (n_node >= 2 * min_leaf) & (n_node >= 2)
    if max_depth is not None:
        tried &= depth < max_depth
    tried = np.flatnonzero(tried)
    if not tried.size:
        return feature, threshold, leaf_code, n_left, child
    if m_try < n_features:
        feats = np.sort([rngs[k].choice(n_features, m_try, replace=False) for k in tried.tolist()])
    else:
        feats = np.broadcast_to(np.arange(n_features), (tried.size, n_features))
    found, best_feature, best_threshold = _best_splits(
        X, codes, order, lo[tried], n_node[tried], counts[tried], feats, min_leaf
    )
    split = tried[found]
    if split.size:
        feature[split], threshold[split] = best_feature[found], best_threshold[found]
        leaf_code[split] = -1
        n_left[split], child[split] = _partition(
            X, codes, counts.shape[1], order, lo[split], n_node[split],
            feature[split], threshold[split],
        )
    return feature, threshold, leaf_code, n_left, child


def _batches(rows) -> list[tuple[int, int]]:
    """Consecutive (start, stop) groups holding at most _SPLIT_ROWS rows,
    or one item when it holds more."""
    bounds, held = [0], 0
    for k, r in enumerate(rows.tolist()):
        if held and held + r > _SPLIT_ROWS:
            bounds.append(k)
            held = 0
        held += r
    bounds.append(len(rows))
    return list(zip(bounds[:-1], bounds[1:]))


def _grow_block(X, codes, n_classes, rngs, samples, m_try, max_depth, min_leaf):
    """Grow one tree per rng, all in lockstep, tree t on the rows
    samples[t] (X.shape[0] of them, repeats allowed).

    Step s expands the s-th node, in preorder, of every tree not yet
    finished. Each tree draws its features from its own rng, once per
    split attempt, in its own preorder. samples may be a generator; it is
    read once, before the first step. Returns the node columns (feature,
    threshold, leaf_code), tree after tree, and the node count of each
    tree.
    """
    X = np.ascontiguousarray(X)
    n, n_features = X.shape
    n_trees = len(rngs)
    # order[f] holds every tree's sample rows, tree t at t*n .. (t+1)*n - 1,
    # sorted by feature f; a node owns the same positions in every list.
    # Row ids times the feature count must fit the dtype.
    order = np.empty((n_features, n_trees * n), dtype=np.int32 if X.size < 2**31 else np.intp)
    by_feature = np.argsort(X, axis=0, kind="stable").T
    # Each tree's pending nodes lie end to end: the next one starts at
    # start[t]; entry k < height[t] of the stack holds where a pending
    # node ends, its depth and its class counts, the next node's on top.
    start = np.arange(n_trees) * n
    height = np.ones(n_trees, dtype=np.intp)
    stack_end = np.zeros((n_trees, 8), dtype=np.intp)
    stack_depth = np.zeros_like(stack_end)
    stack_counts = np.zeros((n_trees, 8, n_classes), dtype=np.intp)
    stack_end[:, 0] = start + n
    for t, sample in enumerate(samples):
        copies = np.bincount(sample, minlength=n)
        for f, rows in enumerate(by_feature):
            order[f, t * n : (t + 1) * n] = np.repeat(rows, copies[rows])
        stack_counts[t, 0] = np.bincount(codes[sample], minlength=n_classes)
    # row s, column t: the s-th node of tree t in preorder
    grown_feature = np.zeros((64, n_trees), dtype=np.intp)
    grown_threshold = np.zeros((64, n_trees))
    grown_leaf_code = np.zeros((64, n_trees), dtype=np.intp)
    sizes = np.zeros(n_trees, dtype=np.intp)
    step = 0
    while height.any():
        tree = np.flatnonzero(height)
        top = height[tree] - 1
        lo, hi = start[tree], stack_end[tree, top]
        depth, counts = stack_depth[tree, top], stack_counts[tree, top]
        n_node = hi - lo
        sizes[tree] += 1
        expanded = [
            _expand(
                X, codes, order, lo[a:b], n_node[a:b], depth[a:b], counts[a:b],
                [rngs[t] for t in tree[a:b].tolist()], m_try, max_depth, min_leaf,
            )
            for a, b in _batches(m_try * n_node)
        ]
        feature, threshold, leaf_code, n_left, child = map(np.concatenate, zip(*expanded))
        if step == grown_feature.shape[0]:
            grown_feature, grown_threshold, grown_leaf_code = (
                np.concatenate([g, np.zeros_like(g)])
                for g in (grown_feature, grown_threshold, grown_leaf_code)
            )
        grown_feature[step, tree] = feature
        grown_threshold[step, tree] = threshold
        grown_leaf_code[step, tree] = leaf_code
        step += 1
        # a leaf is done: its tree moves on to the next pending node
        leaf = feature < 0
        height[tree[leaf]] -= 1
        start[tree[leaf]] = hi[leaf]
        split = np.flatnonzero(~leaf)
        if not split.size:
            continue
        if height.max() == stack_end.shape[1]:
            stack_end, stack_depth, stack_counts = (
                np.concatenate([s, np.zeros_like(s)], axis=1)
                for s in (stack_end, stack_depth, stack_counts)
            )
        # the right child keeps the node's end; the left child comes next
        t, k = tree[split], top[split]
        stack_end[t, k + 1] = lo[split] + n_left[split]
        stack_depth[t, k] = stack_depth[t, k + 1] = depth[split] + 1
        stack_counts[t, k] = child[split, 1]
        stack_counts[t, k + 1] = child[split, 0]
        height[t] += 1
    # tree t takes part in steps 0 .. sizes[t] - 1
    mine = (np.arange(step)[:, None] < sizes).T
    return (*(g[:step].T[mine] for g in (grown_feature, grown_threshold, grown_leaf_code)), sizes)


def train_tree(
    features,
    labels,
    m_try: int,
    rng: np.random.Generator,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
) -> NodeTable:
    """Grow one CART tree on the given rows (already normalized); leaf
    codes index label_universe_of(labels)."""
    X = np.asarray(features, dtype=float)
    universe = label_universe_of(labels)
    codes = _encode_labels(labels, universe)
    if not 1 <= m_try <= X.shape[1]:
        raise ValueError(f"m_try must be in 1..{X.shape[1]}")
    feature, threshold, leaf_code, _ = _grow_block(
        X, codes, len(universe), [rng], [np.arange(X.shape[0])], m_try, max_depth, min_samples_leaf
    )
    return NodeTable(feature, threshold, *_preorder_children(feature), leaf_code)


def tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """The RNG stream owned by one tree; depends only on (seed, index)."""
    return np.random.default_rng([seed, tree_index])


def _grow_indexed_block(X_norm, codes, n_classes, params: ForestParams, trees: range):
    """Grow the forest's trees with the given indices as one block: each
    tree draws its bootstrap, then its features, from tree_rng."""
    n = X_norm.shape[0]
    rngs = [tree_rng(params.seed, index) for index in trees]
    samples = (bootstrap_sample(n, n, rng) for rng in rngs)
    m_try = params.resolved_m_try(X_norm.shape[1])
    return _grow_block(
        X_norm, codes, n_classes, rngs, samples, m_try, params.max_depth, params.min_samples_leaf
    )


_WORKER_STATE: dict = {}


def _worker_init(X_norm, codes, n_classes, params):
    _WORKER_STATE.update(X=X_norm, codes=codes, n_classes=n_classes, params=params)


def _worker_grow(trees: range):
    s = _WORKER_STATE
    return _grow_indexed_block(s["X"], s["codes"], s["n_classes"], s["params"], trees)


def train_forest(training_set: TrainingSet, params: ForestParams, n_jobs: int = 1) -> RandomForestModel:
    """Train a bagged forest; results are identical for any n_jobs.

    Args:
        training_set: rows to fit; the max-abs scaler is fit from them.
        params: tree counts and stopping controls.
        n_jobs: worker processes; 1 trains in-process.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    ts = training_set
    universe = label_universe_of(ts.labels)
    if len(universe) < 2:
        raise ValueError("training needs at least 2 distinct labels")
    scaler = normalize_fit(ts.features)
    X_norm = normalize_apply(scaler, ts.features)
    codes = _encode_labels(ts.labels, universe)
    n_classes = len(universe)

    workers = min(n_jobs, params.n_trees, os.cpu_count() or 1)
    block = min(max(1, _GROW_ENTRIES // X_norm.size), -(-params.n_trees // workers))
    blocks = [range(b, min(b + block, params.n_trees)) for b in range(0, params.n_trees, block)]
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(X_norm, codes, n_classes, params),
        ) as pool:
            grown = list(pool.map(_worker_grow, blocks))
    else:
        grown = [_grow_indexed_block(X_norm, codes, n_classes, params, trees) for trees in blocks]

    feature, threshold, leaf_code, sizes = map(np.concatenate, zip(*grown))
    return RandomForestModel(
        nodes=NodeTable(feature, threshold, *_preorder_children(feature), leaf_code),
        roots=np.cumsum(sizes) - sizes,
        feature_names=ts.feature_names,
        scaler=scaler,
        label_universe=universe,
        params=params,
    )


def _walk_block(X_norm, nodes: NodeTable, child, rows, roots):
    """Walk every (row, tree) pair of one tree block to its leaf.

    Pairs are tree-major, so each step only reads that block's nodes; a
    pair is dropped once it reaches a leaf. Returns the row and the leaf
    label code of every pair.
    """
    feature, threshold, _, _, leaf_code = nodes
    n_features = X_norm.shape[1]
    X_flat = X_norm.ravel()
    row = np.tile(rows, roots.size)
    cur = np.repeat(roots, rows.size)
    done_rows, done_codes = [], []
    while row.size:
        feat = feature[cur]
        leaf = feat < 0
        if leaf.any():
            done_rows.append(row[leaf])
            done_codes.append(leaf_code[cur[leaf]])
            walking = ~leaf
            row, cur, feat = row[walking], cur[walking], feat[walking]
        go_left = X_flat[row * n_features + feat] <= threshold[cur]
        cur = child[2 * cur + go_left]
    return np.concatenate(done_rows), np.concatenate(done_codes)


def _vote_codes(model: RandomForestModel, X_raw, _until_decided: bool = False) -> np.ndarray:
    """(rows, classes) vote counts for raw (unnormalized) feature rows.

    With _until_decided, a row stops being walked once its label can no
    longer change, so its counts may be partial but their argmax is the
    full forest's.
    """
    X = np.asarray(X_raw, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (rows, {model.n_features}) features")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"feature row {bad[0]} is not finite: {X[bad[0]].tolist()}")
    X_norm = normalize_apply(model.scaler, X)
    # child[2 * node + went_left]
    child = np.stack([model.nodes.right, model.nodes.left], axis=1).ravel()
    n_rows, n_classes, n_trees = X.shape[0], len(model.label_universe), model.n_trees
    votes = np.zeros((n_rows, n_classes), dtype=np.int32)
    chunk_rows = _MAX_PAIRS // _TREE_BLOCK
    for lo in range(0, n_rows, chunk_rows):
        hi = min(lo + chunk_rows, n_rows)
        chunk_votes = votes[lo:hi]
        live = np.arange(lo, hi)
        for b in range(0, n_trees, _TREE_BLOCK):
            roots = model.roots[b : b + _TREE_BLOCK]
            rows, codes = _walk_block(X_norm, model.nodes, child, live, roots)
            chunk_votes += np.bincount(
                (rows - lo) * n_classes + codes, minlength=chunk_votes.size
            ).reshape(chunk_votes.shape)
            if _until_decided:
                # a row whose leader beats the runner-up by more than the
                # trees left is decided; a one-class model never is
                top = np.sort(votes[live], axis=1)[:, -2:]
                live = live[top[:, -1] - top[:, 0] <= n_trees - b - roots.size]
                if not live.size:
                    break
    return votes


def predict_batch(model: RandomForestModel, features) -> list[FaultLabel]:
    """Majority-vote label per row; ties go to the sorted-label order."""
    votes = _vote_codes(model, features, _until_decided=True)
    return [model.label_universe[k] for k in np.argmax(votes, axis=1)]


def predict(model: RandomForestModel, features) -> tuple[FaultLabel, dict[FaultLabel, int]]:
    """Label plus per-label vote counts for one feature row."""
    votes = _vote_codes(model, np.asarray(features, dtype=float).reshape(1, -1))[0]
    counts = {model.label_universe[k]: int(v) for k, v in enumerate(votes) if v}
    return model.label_universe[int(np.argmax(votes))], counts


@dataclass(frozen=True)
class CrossValResult:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    confusion: np.ndarray
    label_universe: tuple[FaultLabel, ...]


def stratified_folds(labels, k_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled per-class round-robin assignment into k folds."""
    by_label: dict[FaultLabel, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    folds: list[list[int]] = [[] for _ in range(k_folds)]
    offset = 0
    for lab in sorted(by_label):
        idx = np.array(by_label[lab])
        rng.shuffle(idx)
        for j, row in enumerate(idx):
            folds[(offset + j) % k_folds].append(int(row))
        offset += len(idx)
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def cross_validate(training_set: TrainingSet, params: ForestParams, k_folds: int = 5) -> CrossValResult:
    """Stratified k-fold accuracy and pooled confusion matrix."""
    ts = training_set
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    if ts.n_rows < k_folds:
        raise ValueError(f"{ts.n_rows} rows cannot fill {k_folds} folds")
    universe = label_universe_of(ts.labels)
    code_of = {lab: k for k, lab in enumerate(universe)}
    rng = np.random.default_rng([params.seed, 0xF01D])
    folds = stratified_folds(ts.labels, k_folds, rng)

    confusion = np.zeros((len(universe), len(universe)), dtype=np.int64)
    accuracies = []
    all_rows = np.arange(ts.n_rows)
    for fold in folds:
        test_mask = np.zeros(ts.n_rows, dtype=bool)
        test_mask[fold] = True
        train_idx = all_rows[~test_mask]
        sub = TrainingSet(
            features=ts.features[train_idx],
            labels=tuple(ts.labels[i] for i in train_idx),
            feature_names=ts.feature_names,
        )
        model = train_forest(sub, params)
        predicted = predict_batch(model, ts.features[fold])
        truth = [ts.labels[i] for i in fold]
        hits = sum(p == t for p, t in zip(predicted, truth))
        accuracies.append(hits / len(fold))
        for p, t in zip(predicted, truth):
            confusion[code_of[t], code_of[p]] += 1
    return CrossValResult(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        confusion=confusion,
        label_universe=universe,
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def model_to_lines(model: RandomForestModel) -> list[str]:
    p = model.params
    for name in model.feature_names:
        if any(ch.isspace() for ch in name):
            raise ModelFormatError(f"feature name with whitespace: {name!r}")
    lines = [
        f"{MODEL_FORMAT_NAME} {MODEL_FORMAT_VERSION}",
        f"n_trees {model.n_trees}",
        f"n_features {model.n_features}",
        "feature_names " + " ".join(model.feature_names),
        "scaler " + " ".join(_fmt(s) for s in model.scaler),
        "labels " + " ".join(str(lab) for lab in model.label_universe),
        f"seed {p.seed}",
        f"m_try {'none' if p.m_try is None else p.m_try}",
        f"max_depth {'none' if p.max_depth is None else p.max_depth}",
        f"min_samples_leaf {p.min_samples_leaf}",
    ]
    names = [str(lab) for lab in model.label_universe]
    columns = (model.nodes.feature, model.nodes.threshold, model.nodes.leaf_code)
    nodes = [
        f"I {f} {_fmt(thr)}" if f >= 0 else f"L {names[code]}"
        for f, thr, code in zip(*(col.tolist() for col in columns))
    ]
    bounds = model.roots.tolist() + [len(nodes)]
    for t in range(model.n_trees):
        lines += [f"tree {t}", *nodes[bounds[t] : bounds[t + 1]]]
    return lines + ["end"]


def _int_or_none(text: str) -> int | None:
    return None if text == "none" else int(text)


# each header line after the format line: its key and how its value is read
_HEADER = {
    "n_trees": int,
    "n_features": int,
    "feature_names": lambda text: tuple(text.split()),
    "scaler": lambda text: np.array([float(v) for v in text.split()]),
    "labels": lambda text: tuple(FaultLabel.from_string(v) for v in text.split()),
    "seed": int,
    "m_try": _int_or_none,
    "max_depth": _int_or_none,
    "min_samples_leaf": int,
}


def _read_header(lines: list[str]) -> dict:
    """The header values by key. A header line that is missing, holds
    the wrong key, or holds a value that cannot be read or that
    ForestParams refuses raises ModelFormatError quoting it."""
    header = {}
    for k, (key, read) in enumerate(_HEADER.items(), 1):
        if k >= len(lines):
            raise ModelFormatError(f"missing header line {key!r}")
        parts = lines[k].split(None, 1)
        if not parts or parts[0] != key:
            raise ModelFormatError(f"expected header {key!r}, got {lines[k]!r}")
        try:
            header[key] = read(parts[1] if len(parts) > 1 else "")
            if key in ForestParams.__dataclass_fields__:
                ForestParams(**{key: header[key]})
            elif key == "n_features" and header[key] < 1:
                raise ValueError("n_features must be >= 1")
        except ValueError as exc:
            raise ModelFormatError(f"bad header line {lines[k]!r}: {exc}") from None
    return header


def _refuse_internal(line: str, n_features: int) -> None:
    """Raise for an `I feature threshold` line that cannot be walked."""
    _, f, thr = line.split()
    try:
        f, thr = int(f), float(thr)
    except ValueError:
        raise ModelFormatError(f"bad tree node line: {line!r}") from None
    if not 0 <= f < n_features:
        raise ModelFormatError(f"feature index outside 0..{n_features - 1}: {line!r}")
    if not math.isfinite(thr):
        raise ModelFormatError(f"non-finite threshold: {line!r}")


def _parse_trees(body: list[str], n_trees: int, n_features: int, labels) -> tuple[NodeTable, np.ndarray]:
    """The node table and tree roots held by the lines after the header;
    a line is a node when it reads `I feature threshold` or `L label`."""
    n_fields = np.fromiter(map(len, map(str.split, body)), np.intp, len(body))
    tokens = np.array(" ".join(body).split() + [""], dtype=object)  # "" closes the last line
    first = np.cumsum(n_fields) - n_fields  # each line's first token
    head = tokens[first]
    # +1 for an internal node, -1 for a leaf, 0 for any other line
    step = ((n_fields == 3) & (head == "I")).astype(np.intp) - ((n_fields == 2) & (head == "L"))
    # a tree ends at its first node where the subtrees still owed drop below zero
    owed = np.cumsum(step)
    others = np.append(np.flatnonzero(step == 0), len(body))
    roots, pos = [], 0
    for t in range(n_trees):
        marker = body[pos] if pos < len(body) else None
        if marker != f"tree {t}":
            raise ModelFormatError(f"expected 'tree {t}', got {marker!r}")
        roots.append(pos - t)
        stop = others[np.searchsorted(others, pos, side="right")]
        done = np.flatnonzero(owed[pos + 1 : stop] == owed[pos] - 1)
        if not done.size:
            at = repr(body[stop]) if stop < len(body) else "the end of the file"
            raise ModelFormatError(f"tree {t} is cut short at {at}")
        pos += int(done[0]) + 2
    if body[pos : pos + 1] != ["end"]:
        raise ModelFormatError("missing end marker")

    internal, leaves = np.flatnonzero(step[:pos] > 0), np.flatnonzero(step[:pos] < 0)
    try:
        f = tokens[first[internal] + 1].astype(np.intp)  # int() and float() of each token
        thr = tokens[first[internal] + 2].astype(float)
    except (ValueError, OverflowError):
        walkable = np.zeros(internal.size, dtype=bool)
    else:
        walkable = (f >= 0) & (f < n_features) & np.isfinite(thr)
    for k in internal[~walkable]:
        _refuse_internal(body[k], n_features)
    code_of = {str(lab): k for k, lab in enumerate(labels)}
    codes = np.array([code_of.get(tok, -1) for tok in tokens[first[leaves] + 1].tolist()])
    unknown = leaves[codes < 0]
    if unknown.size:
        raise ModelFormatError(f"leaf label not in the labels header: {body[unknown[0]]!r}")

    feature = np.full(pos, -1, dtype=np.intp)
    threshold = np.zeros(pos)
    leaf_code = np.full(pos, -1, dtype=np.intp)
    feature[internal], threshold[internal], leaf_code[leaves] = f, thr, codes
    feature, threshold, leaf_code = (col[step[:pos] != 0] for col in (feature, threshold, leaf_code))
    return NodeTable(feature, threshold, *_preorder_children(feature), leaf_code), np.array(roots)


def model_from_lines(lines: list[str]) -> RandomForestModel:
    if not lines:
        raise ModelFormatError("empty model text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MODEL_FORMAT_NAME:
        raise ModelFormatError(f"not a {MODEL_FORMAT_NAME} file: {lines[0]!r}")
    if head[1] != str(MODEL_FORMAT_VERSION):
        raise ModelFormatError(f"unsupported format version {head[1]!r}")
    header = _read_header(lines)
    n_trees, n_features, scaler = header["n_trees"], header["n_features"], header["scaler"]
    if len(header["feature_names"]) != n_features or len(scaler) != n_features:
        raise ModelFormatError("feature_names/scaler width disagrees with n_features")
    if not np.all(np.isfinite(scaler) & (scaler > 0)):
        raise ModelFormatError(f"scaler entries must be finite and > 0: {lines[4]!r}")
    params = ForestParams(**{key: header[key] for key in ForestParams.__dataclass_fields__})
    nodes, roots = _parse_trees(lines[10:], n_trees, n_features, header["labels"])
    return RandomForestModel(
        nodes=nodes,
        roots=roots,
        feature_names=header["feature_names"],
        scaler=scaler,
        label_universe=header["labels"],
        params=params,
    )


def save_model(model: RandomForestModel, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(model_to_lines(model)))
        fh.write("\n")


def load_model(path) -> RandomForestModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_lines(fh.read().splitlines())
