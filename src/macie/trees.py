"""Bagged regression trees used as structural-equation models.

Trees are grown breadth-first into flat arrays. Bootstrap resampling enters
as integer row weights, and columns are presorted once per fit. Each node
keeps its rows sorted by every feature, as an index matrix that a split
partitions stably, so numpy prefix sums of the weights score every feature
and boundary of the node at once, as histogram GBDTs do. The sums run in
the order a row-by-row scan would form them, which keeps fits bit-for-bit
reproducible. Splits minimise weighted squared error; ties go to the first
(feature, boundary) encountered, thresholds sit midway between adjacent
distinct values. A fitted ensemble is stacked into one node array, and
prediction walks every (tree, row) pair down at once, one level per step, so
a row predicts the same alone as in any batch.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError


def _running_sums(a):
    # sums as the loop ``s = 0.0; s += a[0]; s += a[1]; ...`` forms them:
    # cumsum is sequential too but starts from a[0], and adding 0.0 turns
    # the -0.0 of an all-(-0.0) prefix into the loop's 0.0
    return np.cumsum(a, axis=-1) + 0.0


def _last_record(sse, start):
    """Index of the split that the scan "take the first sse below
    best - 1e-12, then raise the bar to it" ends on, or -1.

    This is not the argmin: a later split less than 1e-12 better than the
    current best does not replace it.
    """
    # a record lies below every earlier candidate, so only the strict
    # running minima need the scan
    strict = np.ones(sse.size, bool)
    strict[1:] = sse[1:] < np.minimum.accumulate(sse)[:-1]
    best, at = start, -1
    for c in np.flatnonzero(strict).tolist():
        if sse[c] < best - 1e-12:
            best, at = sse[c], c
    return at


def grow_tree(X, order, y, w, max_depth, min_leaf):
    d = X.shape[1]
    max_nodes = 2 ** (max_depth + 1) - 1
    feat = np.full(max_nodes, -1, np.int64)
    thr = np.zeros(max_nodes)
    left = np.full(max_nodes, -1, np.int64)
    right = np.full(max_nodes, -1, np.int64)
    value = np.zeros(max_nodes)
    depth_of = np.zeros(max_nodes, np.int64)
    # the weights and the weighted first and second moments of each row
    stats = np.stack([w, w * y, w * y * y])
    cols = np.arange(d)[:, None]
    # per node, in breadth-first order: its rows in index order, the order
    # its totals are summed in, and the (d, m) matrix of the same rows with
    # row f sorted by feature f
    rows = np.flatnonzero(w > 0.0)
    by_feature = order.T[w[order.T] > 0.0].reshape(d, rows.size)
    pending = [(rows, by_feature)]
    node = 0
    while node < len(pending):
        rows, idx = pending[node]
        pending[node] = None
        tw, twy, twyy = _running_sums(stats[:, rows])[:, -1]
        value[node] = twy / tw
        sse_total = twyy - twy * twy / tw
        if depth_of[node] >= max_depth or sse_total <= 1e-12 or tw < 2.0 * min_leaf:
            node += 1
            continue
        # candidate (f, k) puts sorted rows 0..k of feature f on the left
        xs = X[idx, cols]
        sums = _running_sums(stats[:, idx])[..., :-1]
        f, k = np.nonzero(
            (xs[:, 1:] != xs[:, :-1])
            & (sums[0] >= min_leaf)
            & (tw - sums[0] >= min_leaf)
        )
        lw, lwy, lwyy = sums[:, f, k]
        rw = tw - lw
        sse = (lwyy - lwy * lwy / lw) + (
            (twyy - lwyy) - (twy - lwy) * (twy - lwy) / rw
        )
        best = _last_record(sse, sse_total)
        if best < 0:
            node += 1
            continue
        best_f = f[best]
        prev_x = xs[best_f, k[best]]
        xi = xs[best_f, k[best] + 1]
        # the midpoint of adjacent doubles can round up to xi; clamp so the
        # right child stays nonempty
        best_thr = 0.5 * (prev_x + xi)
        if best_thr >= xi:
            best_thr = prev_x
        li = len(pending)
        ri = li + 1
        feat[node] = best_f
        thr[node] = best_thr
        left[node] = li
        right[node] = ri
        depth_of[li] = depth_of[node] + 1
        depth_of[ri] = depth_of[node] + 1
        rows_left = X[rows, best_f] <= best_thr
        idx_left = X[idx, best_f] <= best_thr
        n_left = int(np.count_nonzero(rows_left))
        pending.append((rows[rows_left], idx[idx_left].reshape(d, n_left)))
        pending.append(
            (rows[~rows_left], idx[~idx_left].reshape(d, rows.size - n_left))
        )
        node += 1
    n_nodes = len(pending)
    return (
        feat[:n_nodes],
        thr[:n_nodes],
        left[:n_nodes],
        right[:n_nodes],
        value[:n_nodes],
    )


def tree_predict(X, feat, thr, left, right, value, roots=0):
    """Leaf values of every row of ``X`` for each root in ``roots``.

    The result has shape ``np.shape(roots) + (len(X),)``: one tree's values
    for a single root, one row per tree for the roots of a stacked ensemble.
    """
    roots = np.asarray(roots, np.int64)
    n, d = X.shape
    # a leaf routes every row back to itself, so all rows step together
    # without sorting out the ones that have landed
    leaf = feat < 0
    own = np.arange(feat.size)
    feat, thr = np.where(leaf, 0, feat), np.where(leaf, np.inf, thr)
    left, right = np.where(leaf, own, left), np.where(leaf, own, right)
    node = np.repeat(roots.reshape(-1), n)
    start = np.tile(np.arange(n) * d, roots.size)  # row offsets in flat X
    X = np.ascontiguousarray(X).reshape(-1)
    while not leaf[node].all():
        node = np.where(X[start + feat[node]] <= thr[node], left[node], right[node])
    return value[node].reshape(roots.shape + (n,))


def _stack(trees):
    """One node array for a list of trees, child indices offset per tree,
    and the index of each tree's root."""
    sizes = [tree[0].size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)

    def children(part):
        return np.concatenate(
            [np.where(t[part] >= 0, t[part] + r, -1) for t, r in zip(trees, roots)]
        )

    return (
        np.concatenate([tree[0] for tree in trees]),
        np.concatenate([tree[1] for tree in trees]),
        children(2),
        children(3),
        np.concatenate([tree[4] for tree in trees]),
        roots,
    )


class TreeEnsemble:
    """Mean of ``n_trees`` bagged regression trees."""

    def __init__(self, n_trees=10, max_depth=5, min_leaf=1):
        if n_trees < 1 or max_depth < 1 or min_leaf < 1:
            raise ConfigError(
                f"invalid tree settings: n_trees={n_trees} "
                f"max_depth={max_depth} min_leaf={min_leaf}"
            )
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.trees = []
        self._stacked = None

    def fit(self, X, y, rng):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        n = X.shape[0]
        if n < 1:
            raise ConfigError("cannot fit a tree ensemble on zero rows")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ConfigError("cannot fit a tree ensemble on non-finite values")
        order = np.ascontiguousarray(
            np.argsort(X, axis=0, kind="stable").astype(np.int64)
        )
        self.trees = []
        for _ in range(self.n_trees):
            counts = np.bincount(rng.integers(0, n, n), minlength=n)
            w = counts.astype(np.float64)
            self.trees.append(
                grow_tree(X, order, y, w, self.max_depth, float(self.min_leaf))
            )
        self._stacked = _stack(self.trees)
        return self

    def predict(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        if not self.trees:
            raise ConfigError("tree ensemble is not fitted")
        total = np.zeros(X.shape[0])
        for per_tree in tree_predict(X, *self._stacked):
            total += per_tree
        return total / len(self.trees)

    def to_dict(self):
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "trees": [
                {
                    "feature": feat.tolist(),
                    "threshold": thr.tolist(),
                    "left": left.tolist(),
                    "right": right.tolist(),
                    "value": value.tolist(),
                }
                for feat, thr, left, right, value in self.trees
            ],
        }
