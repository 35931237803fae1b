"""From-scratch random forest over fault-labeled feature rows.

Bagged CART trees with Gini splits on the feature values as given: which
rows a split sends left depends only on the order of each feature's
values, so scaling a feature first would change no split. Each tree
trains on a bootstrap resample, and each split considers m_try features
drawn without replacement. A row's label is its 6-bit fault mask, held
in a uint8 array from the training set to predict_batch's result; inside
the forest a label is its code, the rank of its mask among the model's
sorted label universe. Determinism rules: every tree's RNG is derived from
(seed, tree index) only, so parallel and sequential training coincide;
split ties go to the lower feature index then the lower threshold;
leaf pluralities and forest votes break ties in sorted-label order,
which puts the all-zero healthy label first.

A tree is a node table: arrays ``feature``, ``threshold`` and
``leaf_code`` with one entry per node in preorder. The forest stacks
the trees end to end, with a root offset per tree. No child links are
stored: a left child is the next entry, and the walk table below
derives each right child from ``feature`` alone. The model file, format
version 4, is ASCII header lines and then the table's columns and each
tree's node count as raw little-endian bytes; saving writes each column's
bytes, and loading takes each column from its exact byte range and checks
them all with a few array operations.

Training grows the trees in blocks, in lockstep. A block holds as many
trees as keep its bag (below) within 5 MiB, in the narrowest unsigned
dtype that indexes the rows (uint16 from 257 up to 65 536 rows), so the
desk forest's 264 trees of 8000 rows (a 4.2 MB bag) grow as one block. The
split batches, not the block, bound the rows that one step scores. A
node is tried when it is impure, holds rows for two leaves and lies above
the depth limit; step s tries the s-th tried node, in preorder, of every
tree in the block not yet finished, and the leaves between two tried
nodes are written out without a step, so the desk block takes about 750
steps where expanding every node took about 1500. Each tree keeps its
own stack and its own RNG, and draws its features once per split
attempt in its own preorder, so its draws are those of a tree grown
alone. With m_try = 1 a tree draws them in bulk: for one feature
of k, Generator.choice(k, 1, replace=False) makes the one bounded draw
that integers(0, k) makes and has nothing to shuffle, and
integers(0, k, size=c) continues that stream exactly. So each tree
draws chunks of c features from its own RNG, which draws nothing else
after the bootstrap, and gets the features of one choice call per
attempt. Each feature's rows are sorted once per block (the presort of
SLIQ, Mehta et al. 1996), which ranks every row on every feature. The
block's bag holds each tree's bootstrap rows end to end, a node owning
one range of it in any order: a node sorts its rows by rank, and rows
of equal rank are copies of one row. A split writes its rows back in
its feature's order, so its left child owns the front of its range and
its right child the rest. A step is one loop body: it writes out the
leaves on top of each stack, draws the next tried nodes' features, sorts
and scores them in a few array passes per batch (the nodes whose rows
start in one span of a fixed row count), and pushes the children of the
nodes that split. Each node is written as a key (its place in its
tree's preorder, times the block's tree count, plus its tree) with its
fields into arrays that double when full, and placed tree by tree at the
end.

Only the cuts at class boundary points are scored (Fayyad & Irani 1992;
Elomaa & Rousu 1999): a cut is skipped when the values on both sides of
it are held by rows of one and the same class. Between two boundary
points, each cut moves rows of that one class from the right child to
the left, and along such a stretch the children's weighted Gini
impurity is strictly concave, so the gain is strictly convex and peaks
only at an end of the stretch: the first maximum of a node never lies
inside one. A leaf limit can clip a stretch, so the first and last cut
it allows in each run are scored too. Each such cut gets an exact score
from integer sums, with no per-class columns: with L rows left, R right
and SL, SR the sums of the squared class counts on each side, the
children's L Gini_L + R Gini_R is L + R - (SL / L + SR / R), so the
score (SL / L + SR / R) / (L + R) is the gain plus a constant of the
node; SL and SR follow from two running sums over the run. Only the cuts
whose score is within 1e-9 of their node's best get class counts and a
Gini gain
from the same float operations on the same (cuts x classes) rows as when
each node scored every cut alone: division, square, a row sum over every
class, the same gain expression, and the first maximum per node. The
float gains lie within about 1e-14 of the exact ones, so every cut that
can reach or tie the float maximum is among them. So the model bytes
depend neither on the block size, the batches nor the draw chunk, and
match those of growing one node at a time and scoring every cut.

Inference walks a second layout of the nodes, built once per model on
its first use and kept on it: each tree keeps its entries, but the two
children of a split sit side by side, so a step is first + (value >
threshold), read with ndarray.take gathers (cheaper than fancy
indexing). A leaf points at itself with an infinite threshold, so a step
leaves a pair at a leaf where it is. The trees are walked in blocks of
16. Within a block, every (row, tree) pair steps down together, ordered
tree by tree so that one step reads only that block's nodes, and the
block's votes are added with one bincount. Pairs take 3 steps between
leaf checks; a check drops the pairs at a leaf and compacts the rest
with take() on index lists, since boolean-mask indexing holds the
interpreter lock.

A pair does not walk its tree's top levels: a second table, also built
once per model, takes it there with one lookup (the idea of QuickScorer,
Lucchese et al. 2015). A top test's outcome depends only on where the
row's value falls among that feature's sorted top thresholds, so one
searchsorted per feature gives each row a column, and per tree one
rank-table read per feature, summed, gives the pair's cell. The cell
names the node below the top levels where the pair goes on, or the leaf
where it stopped above them. A value equal to a threshold takes that
threshold's column and goes left there, as in the walk, so the counts
are those of walking from the roots. A tree has prod(count + 1) cells,
count being its own top thresholds per feature, so the table covers the
deepest top levels, at most 5, that keep it within 8 entries (cells and
rank columns) per node; a tree whose top tests read many features gets
fewer levels.

The rows are cut into the fewest equal spans of at most 4096 rows, so a
call of up to 4096 rows walks on the calling thread alone: shorter spans
walk no faster on two threads than on one. Otherwise each span is a
future of a pool of one helper thread per further core (or per further
span, if fewer). The helpers take the spans from the first, and the
calling thread takes them from the last, each one no helper has started,
so it walks too instead of waiting; NumPy releases the interpreter lock
inside the gathers and compares, so the spans walk at the same time. A
span walks and counts only its own rows, so the counts depend
neither on the spans nor on the number of cores, and it returns only
what a reducer makes of them: predict_batch keeps each span's label
masks and joins them, so it holds one byte per row over the whole batch,
two while it joins them. The helpers are shut down before the call
returns.

When only labels are wanted, a stop rule is asked after each block which
rows walk on. predict_batch's rule is exact: a row stops after any block
where its leading vote beats the runner-up by more than the number of
trees not yet walked: even if every remaining tree voted for one other
label, that label would end below the leader, so the argmax cannot
change. A margin equal to the trees left keeps the row walking, because
a tie would go to the label that sorts first, which may be the
runner-up. A lead is at most the trees walked, so no row is checked
before more than half the trees are walked. The stream's rule adds a
statistical stop (Hernandez-Lobato, Martinez-Munoz & Suarez 2009) at
fixed looks, after 16, 32, 64, ... trees: a row stops with its leader
when the chance that the trees not yet walked overturn or tie it is at
most 1e-4, if they are independent draws. The desk forest takes 5 looks,
so a row's label differs from the full forest's with a chance of at most
5e-4 (a union bound over the looks). The rows still live walk on in
blocks of as many trees as keep a block within the (row, tree) pairs of
the span's first, so few live rows walk long blocks, each cut to end on
the next look.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np

from .simulate import LABELS, FaultLabel, check_label_masks

MODEL_FORMAT_NAME = "trifault-forest"
MODEL_FORMAT_VERSION = 4
# why a file of an earlier format version is refused
_OLD_FORMATS = {
    "1": "its thresholds are on scaled rows",
    "2": "its thresholds are on scaled rows",
    "3": "its trees are text lines",
}
# gains below this are treated as float jitter, not a real improvement
_MIN_GAIN = 1e-12
# the split search computes a float gain only for the cuts whose exact
# score is within this much of their node's best
_NEAR_SCORE = 1e-9
# inference walks the trees this many at a time ...
_TREE_BLOCK = 16
# ... over the fewest equal spans of at most this many rows, shared out among
# the cores: shorter spans walk slower on two threads than on one, which hand
# the interpreter lock back and forth between short NumPy calls ...
_SPAN_ROWS = 4096
# ... and lets each pair take this many steps between leaf checks, after a
# table lookup took it past at most this many top levels of its tree: as
# many as keep the table within this many entries per node
_LEAF_CHECK_STEPS = 3
_TOP_LEVELS = 5
_TOP_ENTRIES = 8
# the stream's statistical stop: at a look, a row stops when the chance that
# the trees left overturn or tie its leader is at most this (see _stream_stop)
_STOP_CHANCE = 1e-4
# training grows as many trees at a time as keep the block's bag, one row
# index per tree and row in the narrowest unsigned dtype, within this many
# bytes: the desk forest's 264 trees of 8000 rows (uint16, 4.2 MB) grow as
# one block, and no bag outgrows the 5.6 MB of the 174 int32 trees that
# the earlier cap on trees x rows x features allowed ...
_GROW_BAG_BYTES = 5 << 20
# ... and scores split nodes in batches of about this many rows, summed over
# their runs, each batch sorting its keys in one call; with m_try == 1 a
# tree draws its features this many at a time
_SPLIT_ROWS = 32768
_DRAW_CHUNK = 256


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

    An internal node has feature >= 0 and sends a row left, to the next
    entry, when its value of that feature is <= threshold, a value in the
    units of the training rows; its leaf_code is -1. A leaf has feature
    -1 and votes for label code leaf_code.

    threshold is float64 and leaf_code int8 (a label code is below 64,
    one per 6-bit mask); feature is int8 when the model has at most 128
    features, else intp.
    """

    feature: np.ndarray
    threshold: np.ndarray
    leaf_code: np.ndarray


def _node_columns(n_nodes: int, n_features: int) -> NodeTable:
    """Node columns for n_nodes nodes over n_features features, in the
    dtypes above; feature and leaf_code hold -1 and threshold 0 until
    written."""
    code = _feature_dtype(n_features)
    return NodeTable(np.full(n_nodes, -1, dtype=code), np.zeros(n_nodes), np.full(n_nodes, -1, dtype=np.int8))


def _feature_dtype(n_features: int) -> type:
    return np.int8 if n_features <= np.iinfo(np.int8).max + 1 else np.intp


def _preorder_children(feature: np.ndarray) -> np.ndarray:
    """Right-child links of whole trees laid out in preorder, one after
    another; a leaf points at itself. A left child is the next node.

    Count the subtrees still owed before each node: +1 per internal node,
    -1 per leaf. Inside a node's left subtree the count stays above its
    value at the node and returns to it right after, so the right child
    is the next node with the same count. Each tree lowers the count by
    one.
    """
    internal = feature >= 0
    step = np.where(internal, 1, -1)
    order = np.argsort(np.cumsum(step) - step, kind="stable")
    right = np.arange(feature.size)
    before = order[:-1]
    opens = internal[before]
    right[before[opens]] = order[1:][opens]
    return right


def _refuse_non_finite_rows(X: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"feature row {bad[0]} is not finite: {X[bad[0]].tolist()}")


@dataclass(frozen=True)
class TrainingSet:
    """Finite feature rows plus their label masks (uint8)."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a non-empty (rows, n_features) array")
        _refuse_non_finite_rows(X)
        check_label_masks(self.labels)
        if len(self.labels) != X.shape[0]:
            raise ValueError("labels must match the number of feature rows")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names must match the feature width")
        object.__setattr__(self, "features", X)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


class _WalkTable(NamedTuple):
    """The stacked trees relabelled for walking, tree t still at the
    entries from roots[t] up to the next root.

    An internal node's children sit side by side, left at first and
    right at first + 1, so a step is first + (value > threshold). A leaf
    has threshold +inf, feature 0 and first pointing at itself, so a
    step leaves it where it is. leaf_code is -1 at an internal node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    first: np.ndarray
    leaf_code: np.ndarray


def _build_walk_table(nodes: NodeTable, roots: np.ndarray) -> _WalkTable:
    """The walk table of a stacked forest. A root keeps its entry; the
    k-th internal node of a tree, in preorder, gets its children at
    entries 2k + 1 and 2k + 2 after the root. A tree keeps its own
    entries, so the table is written _TREE_BLOCK trees at a time into
    arrays allocated once, and no working array spans the whole forest."""
    n = nodes.feature.size
    # int8 codes make the gathers read less; label codes are below 64 (one
    # per 6-bit mask), but a model file may index more than 128 features
    code = np.int8 if nodes.feature.max(initial=0) <= np.iinfo(np.int8).max else np.intp
    table = _WalkTable(np.empty(n, code), np.empty(n), np.empty(n, np.intp), np.empty(n, code))
    bounds = np.append(roots, n)
    for b in range(0, roots.size, _TREE_BLOCK):
        lo, hi = bounds[b], bounds[min(b + _TREE_BLOCK, roots.size)]
        feature, threshold, leaf_code = (col[lo:hi] for col in nodes)
        block_roots = roots[b : b + _TREE_BLOCK] - lo
        internal = feature >= 0
        root = np.repeat(block_roots, np.diff(bounds[b : b + _TREE_BLOCK + 1]))  # each node's tree root
        before = np.cumsum(internal) - internal  # internal nodes before each node
        split = np.flatnonzero(internal)
        pair = root[split] + 1 + 2 * (before[split] - before[root[split]])
        new = np.empty(hi - lo, dtype=np.intp)
        new[block_roots] = block_roots
        new[split + 1], new[_preorder_children(feature)[split]] = pair, pair + 1  # left, right
        block = _WalkTable(*(col[lo:hi] for col in table))
        block.feature[new] = np.maximum(feature, 0)
        block.threshold[new] = np.where(internal, threshold, np.inf)
        block.first[new] = lo + new  # a leaf points at itself
        block.first[new[split]] = lo + pair
        block.leaf_code[new] = leaf_code
    return table


class _TopTable(NamedTuple):
    """Where a (row, tree) pair stands after its tree's top levels, read
    from where the row's values fall among the top thresholds.

    features[u] is a feature that some tree tests in its top levels and
    cuts[u] the sorted distinct thresholds of those tests (with no top
    test at all, feature 0 with no cuts stands in). A row whose
    value on it has column g = searchsorted(cuts[u], value) lies above
    exactly the thresholds cuts[u][:g], so it goes the same way at every
    top test of that feature as any other row with that column. Row t of
    rank[u] maps g to tree t's stride on the feature times the count of
    its own top thresholds below the value; rank[0] adds tree t's first
    cell. The sum over u is the pair's cell, and entry[cell] is the walk
    table entry where the pair goes on: a node below the top levels, or
    the leaf where it stopped above them.
    """

    features: tuple[int, ...]
    cuts: tuple[np.ndarray, ...]
    rank: tuple[np.ndarray, ...]
    entry: np.ndarray


def _top_nodes(table: _WalkTable, roots: np.ndarray):
    """The nodes of every tree's top _TOP_LEVELS + 1 levels, level after
    level from the roots; a level lists the left children of the splits
    on the level above, then their right children. Returns their
    walk-table entries, their trees, and where each level starts."""
    node, tree = [roots], [np.arange(roots.size)]
    for _ in range(_TOP_LEVELS):
        split = np.flatnonzero(table.leaf_code.take(node[-1]) < 0)
        left = table.first.take(node[-1][split])
        node.append(np.concatenate([left, left + 1]))
        tree.append(np.tile(tree[-1][split], 2))
    starts = np.cumsum([0] + [n.size for n in node])
    return np.concatenate(node), np.concatenate(tree), starts


def _build_top_table(table: _WalkTable, roots: np.ndarray) -> _TopTable:
    """The top table of the deepest top levels, at most _TOP_LEVELS, whose
    cells and rank columns number at most _TOP_ENTRIES per node.

    A tree's cells are the combinations of one count per feature: the
    count of its top thresholds on that feature below a row's value. So a
    tree has prod(count + 1) cells, numbered with the last feature's count
    varying fastest. Each cell's entry comes from a walk over the top
    levels, tree block by tree block, that goes right at a test when the
    cell's count on the test's feature is above the rank of the test's
    threshold among the tree's thresholds on that feature.
    """
    n_trees = roots.size
    node, tree_of, starts = _top_nodes(table, roots)
    for depth in range(_TOP_LEVELS, -1, -1):
        # the tests: the splits on the levels above `depth`
        test = np.flatnonzero(table.leaf_code.take(node[: starts[depth]]) < 0)
        tree, threshold = tree_of[test], table.threshold.take(node[test])
        features, feature = np.unique(table.feature.take(node[test]), return_inverse=True)
        if not features.size:
            features = np.zeros(1, dtype=np.intp)  # its rank table carries the offsets
        # each test's rank among its tree's distinct thresholds on its feature
        order = np.lexsort((threshold, feature, tree))
        t, f, h = tree[order], feature[order], threshold[order]
        new_group = np.ones(order.size, dtype=bool)
        new_group[1:] = (t[1:] != t[:-1]) | (f[1:] != f[:-1])
        new_value = new_group.copy()
        new_value[1:] |= h[1:] != h[:-1]
        distinct = np.cumsum(new_value) - 1
        rank_of = np.empty(order.size, dtype=np.intp)
        rank_of[order] = distinct - distinct[new_group][np.cumsum(new_group) - 1]
        kept = np.flatnonzero(new_value)
        count = np.bincount(t[kept] * features.size + f[kept], minlength=n_trees * features.size)
        count = count.reshape(n_trees, features.size)
        cuts = [np.unique(h[f == u]) for u in range(features.size)]
        cells = np.prod(count + 1, axis=1)
        if cells.sum() + n_trees * sum(cut.size + 1 for cut in cuts) <= _TOP_ENTRIES * table.feature.size:
            break
    stride = np.ones_like(count)
    stride[:, :-1] = np.cumprod((count + 1)[:, :0:-1], axis=1)[:, ::-1]
    offset = np.cumsum(cells) - cells
    n_cells = int(cells.sum())

    rank = []
    for u, cut in enumerate(cuts):
        # a tree's rank steps up by its stride at each of its own thresholds;
        # rank[0] is wide enough for any cell, so the sums fit it
        step = stride[:, u] * (count[:, u] > 0)
        dtype = np.min_scalar_type(n_cells - 1 if u == 0 else (step * count[:, u]).max())
        at = kept[f[kept] == u]
        table_u = np.zeros((n_trees, cut.size + 1), dtype=dtype)
        table_u[t[at], np.searchsorted(cut, h[at]) + 1] = 1
        np.cumsum(table_u, axis=1, dtype=dtype, out=table_u)
        table_u *= step.astype(dtype)[:, None]
        if u == 0:
            table_u += offset.astype(dtype)[:, None]
        rank.append(table_u)

    # A test sends a cell right when its count on the feature is above the
    # rank, that is when cell % (stride * (count + 1)) >= stride * (rank + 1);
    # a slot that is not a test keeps the cell where it is.
    n_slots = starts[depth + 1]
    period = np.ones(n_slots, dtype=np.intp)
    above = np.ones(n_slots, dtype=np.intp)
    test_stride = stride[tree, feature]
    period[test] = test_stride * (count[tree, feature] + 1)
    above[test] = test_stride * (rank_of + 1)
    child = np.repeat(np.arange(n_slots), 2)  # (left, right) slot of each slot
    sorter = np.argsort(node[:n_slots])
    left = table.first.take(node[test])
    child[2 * test] = sorter[np.searchsorted(node[:n_slots], left, sorter=sorter)]
    child[2 * test + 1] = sorter[np.searchsorted(node[:n_slots], left + 1, sorter=sorter)]
    entry = np.empty(n_cells, dtype=np.int32 if table.feature.size <= np.iinfo(np.int32).max else np.intp)
    for b in range(0, n_trees, _TREE_BLOCK):
        block_cells = cells[b : b + _TREE_BLOCK]
        lo = offset[b]
        cell = np.arange(block_cells.sum()) - np.repeat(offset[b : b + _TREE_BLOCK] - lo, block_cells)
        slot = np.repeat(np.arange(b, b + block_cells.size), block_cells)  # the roots come first
        for _ in range(depth):
            slot = child.take(2 * slot + (cell % period.take(slot) >= above.take(slot)))
        entry[lo : lo + cell.size] = node.take(slot)
    return _TopTable(tuple(features.tolist()), tuple(cuts), tuple(rank), entry)


@dataclass
class RandomForestModel:
    """Every tree's node table stacked into one. Tree t occupies the
    entries from roots[t] up to the next root. healthy_rms, the RMS that
    diagnosis calibrates a stream to, is that of the raw healthy training
    rows pooled over every feature: A / sqrt(2) for balanced currents of
    peak A at any instants; None if no such row carries current."""

    nodes: NodeTable
    roots: np.ndarray
    feature_names: tuple[str, ...]
    healthy_rms: float | None
    label_universe: tuple[FaultLabel, ...]
    params: ForestParams

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def _walk_table(self) -> _WalkTable:
        """The nodes laid out for inference, built on first use."""
        return _build_walk_table(self.nodes, self.roots)

    @cached_property
    def _top_table(self) -> _TopTable:
        """Where each (row, tree) pair stands below the top levels, built on
        first use."""
        return _build_top_table(self._walk_table, self.roots)


def bootstrap_sample(n_rows: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n row indices drawn uniformly with replacement from range(n_rows)."""
    if n_rows < 1:
        raise ValueError("cannot bootstrap from an empty row set")
    if n < 1:
        raise ValueError("bootstrap size must be >= 1")
    return rng.integers(0, n_rows, size=n)


def label_universe_of(labels) -> tuple[FaultLabel, ...]:
    """The distinct labels of an array of label masks, sorted."""
    return tuple(LABELS[m] for m in np.unique(labels).tolist())


def _ranges(starts, lengths) -> np.ndarray:
    """The index ranges [start, start + length), laid end to end."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


def _presort(X, codes):
    """Each feature's rows in stable sorted order, as (row, value, code,
    rank), each n_features x n: feature f's r-th row is row[f, r], with
    value value[f, r] and class code[f, r], and rank[f, i] is row i's r.
    The codes are uint8: a model has at most 64 labels."""
    row = np.argsort(X.T, axis=1, kind="stable")
    rank = np.empty_like(row)
    np.put_along_axis(rank, row, np.arange(X.shape[0]), axis=1)
    return row, np.take_along_axis(X.T, row, axis=1), codes.astype(np.uint8)[row], rank


def _best_splits(presort, bag, lo, n_node, counts, feats, min_leaf):
    """(feature, threshold) of the best split of each node, or (-1, 0.0)
    for a node whose best gain does not clear _MIN_GAIN, and how many of
    its rows go left with their class counts (0 for such a node).

    Node k owns the rows bag[lo[k] : lo[k] + n_node[k]], in any order;
    counts[k] are its class counts and feats[k] its ascending feature
    draw. A run is one node's rows sorted by one drawn feature: one sort
    of the keys run * n + rank orders every run. The runs lie end to end,
    node by node and features ascending within a node, so the first
    maximum of a node's gains is its lowest feature's lowest threshold.
    A split node's range of the bag is rewritten in its winning run's
    order, so the rows that go left come first.

    Only boundary points are scored, plus the first and last cut of a run
    that the leaf limit allows: a cut inside a stretch of one class has a
    strictly convex gain along the stretch, so it is never the first
    maximum, and dropping it changes no result. Each cut is scored from
    exact integer sums, and only the cuts near their node's best score
    get class counts and a Gini gain in floats.
    """
    n_nodes, m_try = feats.shape
    n_classes = counts.shape[1]
    n = presort[0].shape[1]
    sorted_row, sorted_value, sorted_code, rank = (a.ravel() for a in presort)
    run_node = np.repeat(np.arange(n_nodes), m_try)
    run_feature = feats.ravel()
    run_size = n_node[run_node]
    run_end = np.cumsum(run_size) - 1
    run_first = run_end - run_size + 1
    row_run = np.repeat(np.arange(run_size.size), run_size)
    feature_base = run_feature[row_run] * n
    run_base = row_run * n
    at = _ranges(lo[run_node], run_size)  # where each run's rows lie in the bag
    place = rank[feature_base + bag[at]]
    place += run_base
    place.sort()
    # a key less run * n is the row's rank r on f, at f * n + r in the presort
    place += feature_base - run_base
    value = sorted_value[place]
    row_codes = sorted_code[place]
    # a cut falls between two different values of one run
    differs = value[1:] != value[:-1]
    differs[run_end[:-1]] = False
    cut = np.flatnonzero(differs)
    run = row_run[cut]
    # a cut is a boundary point when the class changes somewhere from the
    # first row of the value before it to the last row of the value after it
    class_changes = np.zeros(value.size, dtype=np.intp)  # before each row
    np.cumsum(row_codes[1:] != row_codes[:-1], out=class_changes[1:])
    group_first = np.maximum(np.append(0, cut[:-1] + 1), run_first[run])
    group_last = np.minimum(np.append(cut[1:], value.size), run_end[run])
    keep = class_changes[group_last] > class_changes[group_first]
    if min_leaf > 1:
        # the leaf limit clips a run's cuts to one stretch, whose ends may
        # lie between boundary points: keep them too
        first = np.searchsorted(cut, run_first + min_leaf - 1)
        last = np.searchsorted(cut, run_end - min_leaf, side="right") - 1
        some = first <= last
        keep[first[some]] = keep[last[some]] = True
        left_n = cut + 1 - run_first[run]
        keep &= (left_n >= min_leaf) & (run_size[run] - left_n >= min_leaf)
    cut = cut[keep]
    run = row_run[cut]
    left_n = cut + 1 - run_first[run]
    node_n = run_size[run]
    best_feature = np.full(n_nodes, -1, dtype=np.intp)
    best_threshold = np.zeros(n_nodes)
    best_left_n = np.zeros(n_nodes, dtype=np.intp)
    best_left = np.zeros((n_nodes, n_classes), dtype=np.intp)
    if not cut.size:
        return best_feature, best_threshold, best_left_n, best_left

    # The exact score of each cut. With L rows left, R right, N = L + R and
    # SL, SR the sums of the squared class counts on each side, the
    # children's L * Gini_L + R * Gini_R is N - (SL / L + SR / R), so the
    # gain is the node's constant plus (SL / L + SR / R) / N. A row that
    # is the k-th of its class in its run adds 2k + 1 to SL, and one of
    # class c adds N_c, the node's count of c, to X = sum_c N_c * L_c;
    # then SR = sum_c N_c^2 - 2X + SL. A stable sort of the codes puts
    # each run's rows of one class together, in run order, after the rows
    # of lower classes and those of the class in earlier runs, which
    # gives k.
    run_counts = counts[run_node]
    earlier = np.cumsum(run_counts, axis=0) - run_counts  # rows of each class before each run
    class_n = run_counts.sum(axis=0)
    group = earlier + (np.cumsum(class_n) - class_n)  # where each (run, class) starts, sorted
    cell = row_run * n_classes + row_codes
    by_class = np.argsort(row_codes, kind="stable")  # uint8 codes: a radix sort
    squares = np.empty(value.size, dtype=np.int64)
    squares[by_class] = np.arange(1, 2 * value.size, 2)
    squares -= 2 * group.ravel()[cell]
    np.cumsum(squares, out=squares)  # SL through each row, plus the earlier runs' sums
    pairs = np.cumsum(run_counts.ravel()[cell])  # X through each row, plus the same
    # a run adds sum_c N_c^2 to either sum
    run_squares = np.sum(run_counts * run_counts, axis=1)
    earlier_squares = np.cumsum(run_squares) - run_squares
    left_squares = squares[cut] - earlier_squares[run]
    right_squares = (run_squares + earlier_squares)[run] + squares[cut] - 2 * pairs[cut]
    node = run_node[run]
    score = (left_squares / left_n + right_squares / (node_n - left_n)) / node_n
    # The float gains below are within about 1e-14 of the exact gains, and
    # the scores, all in (0, 1], within about 1e-16 of the exact ones. So
    # a cut whose float gain reaches or ties its node's float maximum has
    # an exact gain within about 2e-14 of the node's best, and a score
    # within _NEAR_SCORE of the best score: dropping every other cut
    # changes neither the maximum nor which cut comes first at it.
    node_cuts = np.searchsorted(node, np.arange(n_nodes + 1))
    nodes = np.flatnonzero(node_cuts[:-1] < node_cuts[1:])
    near = np.maximum.reduceat(score, node_cuts[nodes]) - _NEAR_SCORE
    near = np.flatnonzero(score >= np.repeat(near, node_cuts[nodes + 1] - node_cuts[nodes]))
    cut, run, left_n, node_n, node = cut[near], run[near], left_n[near], node_n[near], node[near]

    # Exact class counts left of each near-best cut: count the rows after
    # the previous such cut, add up, and take away the rows of earlier runs.
    gap = np.zeros(value.size, dtype=np.intp)
    gap[cut + 1] = 1
    np.cumsum(gap, out=gap)  # cuts before each row
    left_counts = np.bincount(gap * n_classes + row_codes, minlength=(cut.size + 1) * n_classes)
    left_counts = np.cumsum(left_counts.reshape(-1, n_classes)[:-1], axis=0) - earlier[run]

    # the float operations of the per-node Gini search, one row per
    # near-best cut, done in place
    p = counts / n_node[:, None]
    parent_gini = 1.0 - np.sum(p * p, axis=1)
    left = left_counts.astype(float)
    right = counts.astype(float)[node]
    right -= left
    left_size = left_n.astype(float)
    right_size = node_n - left_size
    np.square(np.divide(left, left_size[:, None], out=left), out=left)
    np.square(np.divide(right, right_size[:, None], out=right), out=right)
    gini_left = 1.0 - np.sum(left, axis=1)
    gini_right = 1.0 - np.sum(right, axis=1)
    gains = parent_gini[node] - (left_size * gini_left + right_size * gini_right) / node_n

    node_cuts = np.searchsorted(node, np.arange(n_nodes + 1))
    first = node_cuts[nodes]
    best = np.maximum.reduceat(gains, first)
    at_best = np.flatnonzero(gains == np.repeat(best, node_cuts[nodes + 1] - first))
    win = at_best[np.searchsorted(at_best, first)]  # first maximum per node
    found = best > _MIN_GAIN
    nodes, win = nodes[found], win[found]
    winner, win_run = cut[win], run[win]
    best_feature[nodes] = run_feature[win_run]
    # the midpoint of adjacent floats a < b can round up to b, and then
    # `<= threshold` would send every row left; a is the threshold then.
    # Halving first keeps a + b from overflowing near the float limit, and
    # gives the bits of (a + b) / 2 wherever neither half underflows
    below, above = value[winner], value[winner + 1]
    mid = below / 2.0 + above / 2.0
    best_threshold[nodes] = np.where(mid < above, mid, below)
    best_left_n[nodes] = left_n[win]
    best_left[nodes] = left_counts[win]
    if nodes.size == run_size.size:
        # every run won: one feature per node, and every node split
        bag[at] = sorted_row[place]
    elif nodes.size:
        winning_runs = _ranges(run_first[win_run], n_node[nodes])
        bag[at[winning_runs]] = sorted_row[place[winning_runs]]
    return best_feature, best_threshold, best_left_n, best_left


def _bag_dtype(n_rows: int) -> np.dtype:
    """The narrowest unsigned dtype that indexes n_rows rows."""
    return np.min_scalar_type(n_rows - 1)


class _Rows:
    """Columns of the given dtypes that rows are appended to, a block at a
    time, in one array each that doubles when full: so a loop that appends
    leaves no small arrays behind to fragment the heap."""

    def __init__(self, *dtypes):
        self._columns = [np.empty(1024, dtype) for dtype in dtypes]
        self._size = 0

    def append(self, *values):
        end = self._size + len(values[0])
        if end > len(self._columns[0]):
            self._columns = [
                np.concatenate([col[: self._size], np.empty(max(end, 2 * len(col)) - self._size, col.dtype)])
                for col in self._columns
            ]
        for col, value in zip(self._columns, values):
            col[self._size : end] = value
        self._size = end

    def columns(self):
        return [col[: self._size] for col in self._columns]


def _grow_block(X, codes, n_classes, rngs, samples, m_try, max_depth, min_leaf):
    """Grow one tree per rng, all in lockstep, tree t on the rows
    samples[t] (X.shape[0] of them, repeats allowed, in any order).

    A node is tried when it is impure, holds rows for two leaves and lies
    above the depth limit; any other node is a leaf, and so is a tried
    node that finds no split. Step s tries the s-th tried node, in
    preorder, of every tree not yet finished; the leaves between two tried
    nodes are written out before the step that tries the second, so a
    leaf takes no step. Each tree draws its features from its own rng,
    once per split attempt, in its own preorder. With m_try == 1 a tree
    takes its draw from a pool of _DRAW_CHUNK integers(0, n_features)
    drawn ahead from its rng and refilled when used up, which yields the
    same features as a choice() call per attempt. samples may be a
    generator; it is read once, before the first step, so every bootstrap
    is drawn before any feature. Returns the node columns (feature,
    threshold, leaf_code), tree after tree, and the node count of each
    tree.
    """
    n, n_features = X.shape
    n_trees = len(rngs)
    presort = _presort(X, codes)

    def tried(counts, n_node, depth):
        impure = (counts.max(axis=1) < n_node) & (n_node >= 2 * min_leaf)
        return impure & (depth < max_depth) if max_depth is not None else impure

    # the bag holds every tree's sample rows, tree t at t*n .. (t+1)*n - 1,
    # and a node owns one range of it
    bag = np.empty(n_trees * n, dtype=_bag_dtype(n))
    # Each tree's pending nodes lie end to end: the next one starts at
    # start[t]; entry k < height[t] of the stack holds where a pending
    # node ends, its depth, its class counts and the code it votes for as
    # a leaf, the next node's on top. A stack of height h falls to height
    # kept[t, h] once the leaves on its top are written out.
    start = np.arange(n_trees) * n
    height = np.ones(n_trees, dtype=np.intp)
    stack_end = np.zeros((n_trees, 8), dtype=np.intp)
    stack_depth = np.zeros_like(stack_end)
    stack_counts = np.zeros((n_trees, 8, n_classes), dtype=np.intp)
    stack_code = np.zeros((n_trees, 8), dtype=np.int8)
    kept = np.zeros((n_trees, 9), dtype=np.intp)
    stack_end[:, 0] = start + n
    for t, sample in enumerate(samples):
        bag[t * n : (t + 1) * n] = sample
        stack_counts[t, 0] = np.bincount(codes[sample], minlength=n_classes)
    # a leaf votes for its first plurality: the sorted-label tie-break
    stack_code[:, 0] = np.argmax(stack_counts[:, 0], axis=1)
    kept[:, 1] = tried(stack_counts[:, 0], n, 0)  # a root that is a leaf falls to 0
    # with m_try == 1, tree t's next draws are pool[t, drawn[t]:]; the pool
    # is filled on first use, after every bootstrap
    pool = np.empty((n_trees, _DRAW_CHUNK), dtype=np.int64)
    drawn = np.full(n_trees, _DRAW_CHUNK)
    # The nodes written so far: the leaves' keys and codes, the splits'
    # keys, features and thresholds. The i-th node of tree t in preorder has
    # the key i * n_trees + t; a tree has at most 2n - 1 nodes.
    key_dtype = np.min_scalar_type(2 * n * n_trees)
    leaves = _Rows(key_dtype, np.int8)
    splits = _Rows(key_dtype, _feature_dtype(n_features), np.float64)
    sizes = np.zeros(n_trees, dtype=np.intp)
    tree = np.arange(n_trees)
    while True:
        # write out the leaves on top of each stack, the top one first
        keep = kept[tree, height[tree]]
        popped = np.flatnonzero(keep < height[tree])
        if popped.size:
            t, keep = tree[popped], keep[popped]
            n_leaves = height[t] - keep
            at = _ranges(sizes[t], n_leaves)
            owner = np.repeat(t, n_leaves)
            # the j-th leaf written out of a stack of height h is entry h - 1 - j
            entry = np.repeat(height[t] - 1 + sizes[t], n_leaves) - at
            leaves.append(at * n_trees + owner, stack_code[owner, entry])
            sizes[t] += n_leaves
            start[t] = stack_end[t, keep]
            height[t] = keep
            tree = tree[height[tree] > 0]
        if not tree.size:
            break
        top = height[tree] - 1
        lo, hi = start[tree], stack_end[tree, top]
        depth, counts = stack_depth[tree, top], stack_counts[tree, top]
        n_node = hi - lo
        if m_try == 1 < n_features:
            for t in tree[drawn[tree] == _DRAW_CHUNK].tolist():
                pool[t] = rngs[t].integers(0, n_features, size=_DRAW_CHUNK)
                drawn[t] = 0
            feats = pool[tree, drawn[tree]][:, None]
            drawn[tree] += 1
        elif m_try < n_features:
            draws = (rngs[t].choice(n_features, m_try, replace=False) for t in tree.tolist())
            feats = np.sort(list(draws))
        else:
            feats = np.broadcast_to(np.arange(n_features), (tree.size, n_features))
        # A batch holds the nodes whose first run starts in one span of
        # _SPLIT_ROWS rows, so at most that many rows plus one node's runs,
        # and sorts them in one call.
        runs = m_try * n_node
        span = (np.cumsum(runs) - runs) // _SPLIT_ROWS
        edges = [*np.unique(span, return_index=True)[1].tolist(), tree.size]
        batches = [
            _best_splits(presort, bag, lo[a:b], n_node[a:b], counts[a:b], feats[a:b], min_leaf)
            for a, b in zip(edges, edges[1:])
        ]
        feature, threshold, n_left, left = map(np.concatenate, zip(*batches))
        # a node that found no split is a leaf, written out with those under it
        failed = np.flatnonzero(feature < 0)
        kept[tree[failed], top[failed] + 1] = kept[tree[failed], top[failed]]
        split = np.flatnonzero(feature >= 0)
        if not split.size:
            continue
        t, k = tree[split], top[split]
        splits.append(sizes[t] * n_trees + t, feature[split], threshold[split])
        sizes[t] += 1
        if height.max() == stack_end.shape[1]:
            width = stack_end.shape[1]
            stack_end, stack_depth, stack_counts, stack_code, kept = (
                np.concatenate([s, np.zeros_like(s[:, :width])], axis=1)
                for s in (stack_end, stack_depth, stack_counts, stack_code, kept)
            )
        # the right child keeps the node's end; the left child comes next
        n_l, d = n_left[split], depth[split] + 1
        left_counts = left[split]
        right_counts = counts[split] - left_counts
        stack_end[t, k + 1] = lo[split] + n_l
        stack_depth[t, k] = stack_depth[t, k + 1] = d
        stack_counts[t, k], stack_counts[t, k + 1] = right_counts, left_counts
        stack_code[t, k] = np.argmax(right_counts, axis=1)
        stack_code[t, k + 1] = np.argmax(left_counts, axis=1)
        kept[t, k + 1] = np.where(tried(right_counts, n_node[split] - n_l, d), k + 1, kept[t, k])
        kept[t, k + 2] = np.where(tried(left_counts, n_l, d), k + 2, kept[t, k + 1])
        height[t] += 1
    del bag, presort  # freed before the node columns are built
    # tree t's nodes lie from offset[t] on, in preorder
    offset = np.cumsum(sizes) - sizes
    nodes = _node_columns(int(sizes.sum()), n_features)
    for (keys, *values), columns in ((leaves.columns(), nodes[2:]), (splits.columns(), nodes[:2])):
        at = offset[keys % n_trees]
        at += keys // n_trees
        for column, value in zip(columns, values):
            column[at] = value
    return (*nodes, sizes)


def tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """The RNG stream owned by one tree; depends only on (seed, index)."""
    return np.random.default_rng([seed, tree_index])


def _grow_indexed_block(X, codes, n_classes, params: ForestParams, trees: range):
    """Grow the forest's trees with the given indices as one block: each
    tree draws its bootstrap, then its features, from tree_rng."""
    n = X.shape[0]
    rngs = [tree_rng(params.seed, index) for index in trees]
    samples = (bootstrap_sample(n, n, rng) for rng in rngs)
    m_try = params.resolved_m_try(X.shape[1])
    return _grow_block(X, codes, n_classes, rngs, samples, m_try, params.max_depth, params.min_samples_leaf)


def _block_trees(n_rows: int, n_trees: int, workers: int) -> int:
    """Trees per block: as many as keep the block's bag within
    _GROW_BAG_BYTES, at least one, and at most 1/workers of the trees."""
    per_tree = n_rows * _bag_dtype(n_rows).itemsize
    return min(max(1, _GROW_BAG_BYTES // per_tree), -(-n_trees // workers))


def _rms(values: np.ndarray) -> float:
    """The RMS of the entries, 0.0 for none. They are scaled by a power of
    two first, which is exact, so that no square overflows near the float
    limit; where no square overflowed unscaled, the bits are the same."""
    if not values.size:
        return 0.0
    _, exp = math.frexp(float(np.max(np.abs(values))))
    return math.ldexp(float(np.sqrt(np.mean(np.square(np.ldexp(values, -exp))))), exp)


def train_forest(training_set: TrainingSet, params: ForestParams, n_jobs: int = 1) -> RandomForestModel:
    """Train a bagged forest; results are identical for any n_jobs.

    Args:
        training_set: rows to fit, split on as they are; healthy_rms is
            fit from them.
        params: tree counts and stopping controls.
        n_jobs: worker processes, at most one per core this process may
            run on; 1 trains in-process. Each worker imports the caller's
            main module, so a script passing n_jobs > 1 needs an
            `if __name__ == "__main__":` guard; without one the workers
            die, and this raises RuntimeError.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    ts = training_set
    masks = np.unique(ts.labels)
    if masks.size < 2:
        raise ValueError("training needs at least 2 distinct labels")
    healthy_rms = _rms(ts.features[ts.labels == 0])
    codes = np.searchsorted(masks, ts.labels)
    n_classes = masks.size

    workers = min(n_jobs, params.n_trees, _cores())
    block = _block_trees(ts.n_rows, params.n_trees, workers)
    blocks = [range(b, min(b + block, params.n_trees)) for b in range(0, params.n_trees, block)]
    grow = partial(_grow_indexed_block, ts.features, codes, n_classes, params)
    if workers > 1:
        # the process pool is imported here, so that importing trifault does not pay for it
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        if getattr(multiprocessing.current_process(), "_inheriting", False):
            # a worker still importing an unguarded main module: refuse before
            # a pool makes semaphores that the dying worker would leak
            raise RuntimeError(
                "train_forest with n_jobs > 1 was called while a worker process was starting;"
                ' the calling script needs an `if __name__ == "__main__":` guard'
            )
        # NumPy's OpenBLAS threads already run in this process, and a fork
        # copies only the thread that forks, so the workers start afresh
        method = "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(method)
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                grown = list(pool.map(grow, blocks))
        except BrokenProcessPool as exc:
            raise RuntimeError(
                f"a training worker process died ({exc}); the usual cause is a script that"
                " calls train_forest with n_jobs > 1 outside an"
                ' `if __name__ == "__main__":` guard, so each worker re-runs it on import'
            ) from exc
    else:
        grown = list(map(grow, blocks))

    feature, threshold, leaf_code, sizes = map(np.concatenate, zip(*grown))
    return RandomForestModel(
        nodes=NodeTable(feature, threshold, leaf_code),
        roots=np.cumsum(sizes) - sizes,
        feature_names=ts.feature_names,
        healthy_rms=healthy_rms or None,
        label_universe=label_universe_of(masks),
        params=params,
    )


def _walk_block(X_flat, n_features, table: _WalkTable, rows, start):
    """Walk every (row, tree) pair of one tree block to its leaf, tree j
    of the block starting row rows[i] at entry start[j, i].

    Pairs are tree-major, so each step only reads that block's nodes, and
    a pair carries only where its row starts in X_flat. A leaf keeps a
    pair where it is, so pairs take _LEAF_CHECK_STEPS steps between
    checks, and the pairs at a leaf are dropped only at a check; the first
    check comes before the first step. Returns the row and the leaf label
    code of every pair.
    """
    feature, threshold, first, leaf_code = table
    base = np.tile(rows * n_features, start.shape[0])
    cur = start.ravel()
    done_rows, done_codes = [], []
    while True:
        # take() on index lists, unlike boolean masks, lets other threads run
        code = leaf_code.take(cur)
        done, walking = np.flatnonzero(code >= 0), np.flatnonzero(code < 0)
        done_rows.append(base.take(done) // n_features)
        done_codes.append(code.take(done))
        if not walking.size:
            return np.concatenate(done_rows), np.concatenate(done_codes)
        base, cur = base.take(walking), cur.take(walking)
        for _ in range(_LEAF_CHECK_STEPS):
            right = X_flat.take(base + feature.take(cur)) > threshold.take(cur)
            cur = first.take(cur) + right


def _cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_all_cores(work, n_rows: int) -> list:
    """Cut the rows into the fewest equal spans of at most _SPAN_ROWS rows
    and return work(lo, hi) of each span, in row order, so a call of up to
    _SPAN_ROWS rows walks on the calling thread alone.

    With w = min(cores, spans) > 1, each span becomes a future of a pool of
    w - 1 helper threads, which take them from the first. The calling
    thread goes from the last span back and walks each span whose future
    it can still cancel, that is, one no helper has started; then it reads
    the helpers' results. So w threads walk, the calling thread one of
    them, and a faster thread takes more spans. NumPy releases the
    interpreter lock inside its gathers and compares, so the walks overlap.
    The pool starts here and is shut down before this returns, so no thread
    outlives the call; when a span raises, the spans no helper has started
    are dropped and the error is raised once the started ones end.
    """
    if n_rows == 0:
        return []
    n_spans = -(-n_rows // _SPAN_ROWS)
    bounds = [k * n_rows // n_spans for k in range(n_spans + 1)]
    spans = list(zip(bounds, bounds[1:]))
    workers = min(_cores(), n_spans)
    if workers == 1:
        return [work(lo, hi) for lo, hi in spans]
    pool = ThreadPoolExecutor(max_workers=workers - 1)
    try:
        futures = [pool.submit(work, lo, hi) for lo, hi in spans]
        mine = {s: work(*spans[s]) for s in reversed(range(n_spans)) if futures[s].cancel()}
        return [mine[s] if s in mine else future.result() for s, future in enumerate(futures)]
    finally:
        pool.shutdown(cancel_futures=True)


def _checked_rows(model: RandomForestModel, X_raw) -> np.ndarray:
    """Feature rows as a float array of the model's width, all finite."""
    X = np.asarray(X_raw, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (rows, {model.n_features}) features")
    _refuse_non_finite_rows(X)
    return X


def _exact_stop(votes, live, walked, n_trees):
    """predict_batch's stop rule: which of the live rows of a span walk on
    after `walked` trees, as indices into `live`, and how many trees they
    walk next; `votes` holds the span's counts. A row stops when its
    leader beats the runner-up by more than the trees left: then no later
    vote can change its argmax. A lead is at most the trees walked, so no
    row stops before half the trees, and a one-class model never stops a
    row. The rows walk on 16 trees at a time."""
    if 2 * walked <= n_trees:
        return np.arange(live.size), _TREE_BLOCK
    lead = np.sort(votes.take(live, axis=0), axis=1)[:, -2:]
    return np.flatnonzero(lead[:, -1] - lead[:, 0] <= n_trees - walked), _TREE_BLOCK


@cache
def _settle_votes(look: int, n_trees: int) -> int:
    """The fewest of a row's first `look` votes that its leader must hold
    for the stream to stop it: the smallest lead whose beta-binomial chance
    that the other n_trees - look trees overturn or tie it is at most
    _STOP_CHANCE, from log-factorials. A leader of all the look >= 16
    votes is overturned with a chance below 2 ** -17, so one exists."""
    ln_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_trees + 2)))))
    lead, k, left = np.arange(look + 1)[:, None], np.arange(n_trees - look + 1), n_trees - look
    a, b = lead + 1, look - lead + 1  # the leader's share is Beta(a, b)
    ln_pmf = (ln_fact[left] - ln_fact[k] - ln_fact[left - k] + ln_fact[k + a - 1] + ln_fact[left - k + b - 1]
              - ln_fact[n_trees + 1] - ln_fact[a - 1] - ln_fact[b - 1] + ln_fact[a + b - 1])
    # k more votes leave the leader lead + k of the n_trees
    chance = np.where(2 * (lead + k) <= n_trees, np.exp(ln_pmf), 0.0).sum(axis=1)
    return int(np.flatnonzero(chance <= _STOP_CHANCE)[0])


def _stream_stop(votes, live, walked, n_trees):
    """classify_stream's stop rule: the exact stop after every block, and
    at each look, after 16, 32, 64, ... trees, a statistical one, the
    instance-based pruning of Hernandez-Lobato, Martinez-Munoz & Suarez
    (IEEE TPAMI 2009). A row whose leader holds _settle_votes(look,
    n_trees) of its votes stops with that leader as its label. Taking the
    trees as independent draws and the leader's share under a uniform
    prior, the chance that the trees left overturn or tie it is then at
    most _STOP_CHANCE, and with the union bound over the looks a row's
    label differs from the full forest's with a chance of at most looks x
    _STOP_CHANCE: 5e-4 for the desk forest's 264 trees, which stops a row
    at 15 of 16, 26 of 32, 46 of 64 or 80 of 128 votes.

    The rows still live walk on in blocks of max(16, 16 * span rows //
    live rows), so a block holds no more (row, tree) pairs than the span's
    first, each cut to end on the next look. The long blocks are what make
    the stop pay: a block steps down to the deepest leaf that any of its
    live rows reaches. Every row meets the same looks in any span, so a
    row gets the same label in any span, but its partial counts depend on
    the blocks."""
    stay, _ = _exact_stop(votes, live, walked, n_trees)
    if walked & (walked - 1) == 0:  # a look: walked is at least the first block's 16
        settle = _settle_votes(walked, n_trees)
        stay = stay.take(np.flatnonzero(votes.take(live.take(stay), axis=0).max(axis=1) < settle))
    block = max(_TREE_BLOCK, _TREE_BLOCK * len(votes) // max(stay.size, 1))
    return stay, min(block, (1 << walked.bit_length()) - walked)


def _walk_spans(model: RandomForestModel, X: np.ndarray, reduce, stop) -> list:
    """reduce(votes) of each span of checked rows (see _on_all_cores),
    in row order, votes being the span's (hi - lo, classes) int32 counts.

    Each span walks its own rows, a view of X, counts their votes and
    reduces them, so no array spans the whole batch here. The trees are
    walked in blocks, 16 at first. With no stop rule every row walks every
    tree, 16 at a time. A stop rule (_exact_stop, _stream_stop) is asked
    after each block but the last which rows walk on and how many trees
    they walk next; a row it stops keeps partial counts. The rules decide
    row by row, so the labels depend neither on the row spans nor on the
    number of threads.
    """
    table, top = model._walk_table, model._top_table
    n_classes, n_trees = len(model.label_universe), model.n_trees

    def walk_span(lo: int, hi: int):
        X_span = X[lo:hi]
        X_flat = X_span.ravel()
        votes = np.zeros((hi - lo, n_classes), dtype=np.int32)
        live = np.arange(hi - lo)
        # a value equal to a cut takes that cut's column: it goes left there
        cols = [np.searchsorted(cut, X_span[:, f], side="left") for f, cut in zip(top.features, top.cuts)]
        walked, block = 0, _TREE_BLOCK
        while walked < n_trees:
            trees = slice(walked, walked + block)
            cell = top.rank[0][trees].take(cols[0], axis=1)
            for rank, col in zip(top.rank[1:], cols[1:]):
                cell += rank[trees].take(col, axis=1)
            rows, codes = _walk_block(X_flat, model.n_features, table, live, top.entry.take(cell))
            votes += np.bincount(rows * n_classes + codes, minlength=votes.size).reshape(votes.shape)
            walked = min(walked + block, n_trees)
            if stop is None or walked == n_trees:
                continue
            stay, block = stop(votes, live, walked, n_trees)
            if stay.size < live.size:
                if not stay.size:
                    break
                live = live.take(stay)
                cols = [col.take(stay) for col in cols]
        return reduce(votes)

    return _on_all_cores(walk_span, X.shape[0])


def _vote_codes(model: RandomForestModel, X_raw, stop=None) -> np.ndarray:
    """(rows, classes) int32 vote counts for feature rows in the units of
    the training rows: full counts, or the partial counts that a stop rule
    leaves (_exact_stop for predict_batch's, _stream_stop for
    classify_stream's). The spans' counts are joined once every span is
    walked."""
    X = _checked_rows(model, X_raw)
    counts = _walk_spans(model, X, lambda votes: votes, stop)
    # the empty first part gives a call of no rows its (0, classes) result
    return np.concatenate([np.empty((0, len(model.label_universe)), dtype=np.int32), *counts])


def predict_batch(model: RandomForestModel, features, *, _stop=_exact_stop) -> np.ndarray:
    """Majority-vote label mask (uint8) per row; ties go to the sorted-label
    order.

    Each span of rows (see _on_all_cores) is walked with the early
    stop and reduced to its masks on its own, so the working memory is a
    few arrays per span in flight plus one byte per row for the result;
    the labels equal the argmax of the full counts of _vote_codes.

    _stop is private: classify_stream passes _stream_stop, whose labels
    may differ from the full forest's (see there).
    """
    X = _checked_rows(model, features)
    masks = np.array([lab.mask for lab in model.label_universe], dtype=np.uint8)
    labels = _walk_spans(model, X, lambda votes: masks.take(np.argmax(votes, axis=1)), _stop)
    return np.concatenate([masks[:0], *labels])  # masks[:0]: no rows, no spans


def stratified_folds(labels, k_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Sorted row indices of k folds: each label's rows, shuffled, are dealt
    round-robin, one label after another in mask order."""
    fold_of = np.empty(len(labels), dtype=np.intp)
    offset = 0
    for mask in np.unique(labels):
        idx = np.flatnonzero(labels == mask)
        rng.shuffle(idx)
        fold_of[idx] = (offset + np.arange(idx.size)) % k_folds
        offset += idx.size
    return [np.flatnonzero(fold_of == k) for k in range(k_folds)]


def cross_validate(training_set: TrainingSet, params: ForestParams, k_folds: int = 5) -> tuple[float, ...]:
    """Stratified k-fold accuracies, one per fold."""
    ts = training_set
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    if ts.n_rows < k_folds:
        raise ValueError(f"{ts.n_rows} rows cannot fill {k_folds} folds")
    rng = np.random.default_rng([params.seed, 0xF01D])
    accuracies = []
    for fold in stratified_folds(ts.labels, k_folds, rng):
        train_idx = np.setdiff1d(np.arange(ts.n_rows), fold)
        sub = TrainingSet(ts.features[train_idx], ts.labels[train_idx], ts.feature_names)
        model = train_forest(sub, params)
        hits = np.count_nonzero(predict_batch(model, ts.features[fold]) == ts.labels[fold])
        accuracies.append(hits / fold.size)
    return tuple(accuracies)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_optional(value: int | None) -> str:
    return "none" if value is None else str(value)


def _int_or_none(text: str) -> int | None:
    return None if text == "none" else int(text)


def _label_list(text: str) -> tuple[FaultLabel, ...]:
    """Labels in strictly increasing order, which vote ties rely on."""
    labels = tuple(FaultLabel.from_string(v) for v in text.split())
    if any(a >= b for a, b in zip(labels, labels[1:])):
        raise ValueError("labels must be sorted and distinct")
    return labels


def _names(text: str) -> tuple[str, ...]:
    names = tuple(text.split())
    if not names:
        raise ValueError("a model needs at least one feature")
    return names


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("the value must be finite and > 0")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("the count must be >= 1")
    return value


# each header line after the format line, in file order: its key, how
# the value is written from a model, and how it is read back
_HEADER = {
    "n_trees": (lambda m: str(m.n_trees), int),
    "feature_names": (lambda m: " ".join(m.feature_names), _names),
    "labels": (lambda m: " ".join(str(lab) for lab in m.label_universe), _label_list),
    "seed": (lambda m: str(m.params.seed), int),
    "m_try": (lambda m: _write_optional(m.params.m_try), _int_or_none),
    "max_depth": (lambda m: _write_optional(m.params.max_depth), _int_or_none),
    "min_samples_leaf": (lambda m: str(m.params.min_samples_leaf), int),
    "healthy_rms": (
        lambda m: _fmt(m.healthy_rms) if m.healthy_rms else "none",
        lambda text: None if text == "none" else _positive(text),
    ),
    "nodes": (lambda m: str(m.nodes.feature.size), _count),
}


def _header_lines(model: RandomForestModel) -> list[str]:
    return [f"{MODEL_FORMAT_NAME} {MODEL_FORMAT_VERSION}"] + [
        f"{key} {write(model)}" for key, (write, _) in _HEADER.items()
    ]


def _file_dtypes(n_features: int) -> tuple[np.dtype, ...]:
    """The file's dtypes of feature, threshold, leaf_code and the tree
    sizes, in file order."""
    feature = "<i1" if _feature_dtype(n_features) == np.int8 else "<i8"
    return tuple(map(np.dtype, (feature, "<f8", "<i1", "<i8")))


def save_model(model: RandomForestModel, path) -> None:
    """Write the header lines, then the bytes of the node columns and of
    each tree's node count (see _file_dtypes)."""
    for name in model.feature_names:
        if any(ch.isspace() for ch in name):
            raise ModelFormatError(f"feature name with whitespace: {name!r}")
    header = "".join(line + "\n" for line in _header_lines(model)).encode("ascii")
    sizes = np.diff(model.roots, append=model.nodes.feature.size)
    with open(path, "wb") as fh:
        fh.write(header)
        for column, dtype in zip((*model.nodes, sizes), _file_dtypes(model.n_features)):
            fh.write(column.astype(dtype, copy=False).tobytes())


def _read_header(lines: list[str]) -> dict:
    """The header values by key. A header line that is missing, holds
    the wrong key, or holds a value that cannot be read or that
    ForestParams refuses raises ModelFormatError quoting it."""
    header = {}
    for k, (key, (_, read)) in enumerate(_HEADER.items(), 1):
        if k >= len(lines):
            raise ModelFormatError(f"missing header line {key!r}")
        parts = lines[k].split(None, 1)
        if not parts or parts[0] != key:
            raise ModelFormatError(f"expected header {key!r}, got {lines[k]!r}")
        try:
            header[key] = read(parts[1] if len(parts) > 1 else "")
            if key in ForestParams.__dataclass_fields__:
                ForestParams(**{key: header[key]})
        except ValueError as exc:
            raise ModelFormatError(f"bad header line {lines[k]!r}: {exc}") from None
    return header


def _check_nodes(nodes: NodeTable, roots: np.ndarray, n_features: int, n_labels: int) -> None:
    """Refuse, naming the first faulty node or tree, a table that cannot
    be walked: a feature outside -1 .. n_features - 1, an internal node
    with a threshold that is not finite or a leaf code other than -1, a
    leaf code outside the labels, or a tree that is not whole in preorder.
    A tree is whole when the subtrees it still owes, 1 before its root, +1
    at each internal node and -1 at each leaf, reach 0 at its last node and
    not before."""
    feature, threshold, leaf_code = nodes
    internal = feature >= 0
    faults = (
        ((feature < -1) | (feature >= n_features), feature, f"feature index {{}} outside -1..{n_features - 1}"),
        (internal & ~np.isfinite(threshold), threshold, "non-finite threshold {}"),
        (internal & (leaf_code != -1), leaf_code, "internal node with leaf code {}"),
        (~internal & ((leaf_code < 0) | (leaf_code >= n_labels)), leaf_code, "leaf code {} not in the labels"),
    )
    for bad, column, fault in faults:
        if bad.any():
            k = int(np.argmax(bad))
            t = int(np.searchsorted(roots, k, side="right")) - 1
            raise ModelFormatError(f"node {k - roots[t]} of tree {t}: " + fault.format(column[k].item()))
    del faults, bad  # so that their masks and owed are not held at once
    # owed[k]: the subtrees the forest owes before node k, after the last at k = n
    owed = np.zeros(feature.size + 1, dtype=np.intp)
    owed[1:] = np.where(internal, np.int8(1), np.int8(-1))
    np.cumsum(owed, out=owed)
    start, end = owed[roots], owed[np.append(roots[1:], feature.size)]
    whole = (np.minimum.reduceat(owed[:-1], roots) >= start) & (end == start - 1)
    if not whole.all():
        raise ModelFormatError(f"tree {int(np.argmin(whole))} is not one whole tree in preorder")


def load_model(path) -> RandomForestModel:
    """The model in a model file. The header lines are read by _HEADER;
    the node columns and tree sizes are taken from the exact byte ranges
    that the header's counts give and checked by _check_nodes. Anything
    that is not a file save_model writes raises ModelFormatError naming
    the fault: a format line or version it does not write, a header line
    that cannot be read or that it would write otherwise, a byte in the
    header that is not ASCII, a body of any other length, or tree sizes
    below 1 or not summing to the node count."""
    with open(path, "rb") as fh:
        data = fh.read()
    first = data.partition(b"\n")[0].decode("ascii", "backslashreplace")
    name, _, version = first.partition(" ")
    if name != MODEL_FORMAT_NAME:
        raise ModelFormatError(f"not a {MODEL_FORMAT_NAME} file: {first!r}")
    if version != str(MODEL_FORMAT_VERSION):
        hint = f": {_OLD_FORMATS[version]}; re-train the model" if version in _OLD_FORMATS else ""
        raise ModelFormatError(f"unsupported format version {version!r}{hint}")
    start = 0
    for _ in range(1 + len(_HEADER)):
        end = data.find(b"\n", start)
        if end < 0:
            break
        start = end + 1
    text = data[:start]
    if not text.isascii():
        bad = next(k for k, byte in enumerate(text) if byte >= 128)
        line = text.count(b"\n", 0, bad) + 1
        raise ModelFormatError(f"header line {line}: byte 0x{text[bad]:02x} is not ASCII")
    lines = text.decode().split("\n")[:-1]
    header = _read_header(lines)

    n_features, n_trees, n_nodes = len(header["feature_names"]), header["n_trees"], header["nodes"]
    counts = (n_nodes, n_nodes, n_nodes, n_trees)
    dtypes = _file_dtypes(n_features)
    size = sum(count * dtype.itemsize for count, dtype in zip(counts, dtypes))
    if len(data) - start != size:
        raise ModelFormatError(
            f"the body holds {len(data) - start} bytes, not the {size} of {n_nodes} nodes in {n_trees} trees"
        )
    columns = []
    for count, dtype, native in zip(counts, dtypes, (_feature_dtype(n_features), float, np.int8, np.intp)):
        columns.append(np.frombuffer(data, dtype, count, start).astype(native))
        start += count * dtype.itemsize
    del data  # the checks hold the columns and not the file's bytes too
    nodes, sizes = NodeTable(*columns[:3]), columns[3]
    if sizes.min() < 1 or sizes.max() > n_nodes or sizes.sum() != n_nodes:
        raise ModelFormatError(f"the tree sizes are not {n_trees} counts of at least 1 that sum to {n_nodes}")
    roots = np.cumsum(sizes) - sizes
    _check_nodes(nodes, roots, n_features, len(header["labels"]))
    model = RandomForestModel(
        nodes=nodes,
        roots=roots,
        feature_names=header["feature_names"],
        healthy_rms=header["healthy_rms"],
        label_universe=header["labels"],
        params=ForestParams(**{key: header[key] for key in ForestParams.__dataclass_fields__}),
    )
    for line, written in zip(lines, _header_lines(model)):
        if line != written:
            raise ModelFormatError(f"header line {line!r} is not as written: {written!r}")
    return model
